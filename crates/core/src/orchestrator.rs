//! The per-function Orchestrator: policy + Database + Object Store.
//!
//! Figure 2's execution steps live here. At worker start the Orchestrator
//! pays the Database read of the policy state, asks the policy for a
//! start decision, and downloads the chosen snapshot from the Object Store
//! (steps 3–4 plus the restore path). After each request it folds the
//! end-to-end latency into the policy's weight vector and pays the
//! Database write (step 3). When the policy schedules a checkpoint, the
//! Orchestrator uploads the snapshot and records its metadata (steps 5–8),
//! deleting any blobs the pool evicted.
//!
//! Each deployment owns exactly one Orchestrator, so θ lives only in its
//! policy: the paper's Database exists to share θ between orchestrator
//! processes, and here only its round trips ([`KvCosts`]) are modelled.
//!
//! Every operation's virtual cost is accumulated into [`OverheadTotals`] —
//! the per-worker-startup / per-request / per-checkpoint decomposition of
//! Figure 7. All of these costs are off the user-visible critical path
//! (§5.3); the platform charges them to worker downtime, not to request
//! latency.

use crate::policy::{Policy, PolicyKind, StartDecision};
use crate::pool::PoolEntry;
use bytes::Bytes;
use pronghorn_checkpoint::{
    CheckpointOutcome, DeltaFrame, DeltaPolicy, Encoder, Frame, Snapshot, SnapshotId, Stored,
};
use pronghorn_kv::KvCosts;
use pronghorn_restore::{
    FaultCostModel, PageMap, RestoreStrategy, WorkingSetManifest, DEFAULT_PAGE_SIZE,
};
use pronghorn_sim::hash::fnv1a_wide;
use pronghorn_sim::SimDuration;
use pronghorn_store::{
    saturating_accumulate, ChainIndex, ChainStats, DownloadPrice, DownloadRequest, ObjectStore,
    StoragePolicy, StorageStats, StorageTier, StoreStats, TransferModel,
};
use rand::RngCore;
use std::collections::BTreeMap;

/// Object-store bucket holding snapshot blobs.
pub const SNAPSHOT_BUCKET: &str = "snapshots";

/// Object-store bucket holding working-set manifests, one per recorded
/// snapshot — the only paged objects (page maps are recomputed).
pub const MANIFESTS_BUCKET: &str = "manifests";

/// Upper bound on a download's parent walk — chains are consolidated at
/// depth K (≤ 16 in the sweeps), so anything past this is a corrupt or
/// cyclic parent reference and degrades to a cold start.
const MAX_CHAIN_WALK: usize = 64;

/// Accumulated orchestration overheads (Figure 7's three components).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverheadTotals {
    /// Total worker-startup overhead, µs (decision + state reads +
    /// snapshot download).
    pub startup_us: f64,
    /// Worker startups observed.
    pub startups: u64,
    /// Total per-request overhead, µs (latency recording + weight write).
    pub request_us: f64,
    /// Requests observed.
    pub requests: u64,
    /// Total per-checkpoint overhead, µs (engine downtime + upload +
    /// metadata writes + pool maintenance).
    pub checkpoint_us: f64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Nominal snapshot bytes uploaded (Table 5 network accounting).
    pub nominal_bytes_uploaded: u64,
    /// Nominal snapshot bytes downloaded.
    pub nominal_bytes_downloaded: u64,
    /// Peak nominal bytes pooled (Table 5 storage accounting).
    pub peak_pool_nominal_bytes: u64,
}

impl OverheadTotals {
    /// Mean startup overhead per worker, µs.
    pub fn per_startup_us(&self) -> f64 {
        if self.startups == 0 {
            0.0
        } else {
            self.startup_us / self.startups as f64
        }
    }

    /// Mean per-request overhead, µs.
    pub fn per_request_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.request_us / self.requests as f64
        }
    }

    /// Mean per-checkpoint overhead, µs.
    pub fn per_checkpoint_us(&self) -> f64 {
        if self.checkpoints == 0 {
            0.0
        } else {
            self.checkpoint_us / self.checkpoints as f64
        }
    }

    /// Folds `other` into `self`, for aggregating disjoint orchestrators
    /// (one per deployment). Every counter adds, so the pool peak becomes
    /// an upper bound on the pools' joint peak.
    pub fn merge(&mut self, other: &OverheadTotals) {
        self.startup_us += other.startup_us;
        self.startups += other.startups;
        self.request_us += other.request_us;
        self.requests += other.requests;
        self.checkpoint_us += other.checkpoint_us;
        self.checkpoints += other.checkpoints;
        saturating_accumulate(
            "nominal_bytes_uploaded",
            &mut self.nominal_bytes_uploaded,
            other.nominal_bytes_uploaded,
        );
        saturating_accumulate(
            "nominal_bytes_downloaded",
            &mut self.nominal_bytes_downloaded,
            other.nominal_bytes_downloaded,
        );
        saturating_accumulate(
            "peak_pool_nominal_bytes",
            &mut self.peak_pool_nominal_bytes,
            other.peak_pool_nominal_bytes,
        );
    }
}

/// What the platform should do with a new worker: restore the
/// downloaded snapshot, or boot cold when there is none.
#[derive(Debug, Clone)]
pub struct WorkerPlan {
    /// Absolute request number at which to checkpoint, if any.
    pub checkpoint_at: Option<u32>,
    /// Orchestrator-side startup overhead (off the critical path).
    pub startup_overhead: SimDuration,
    /// The snapshot to restore; `None` for a cold start, also when the
    /// policy chose a snapshot that could not be downloaded.
    pub download: Option<Download>,
}

/// A snapshot downloaded for a restore, with everything the restore and
/// the worker's later checkpoints read of it. The worker resumes at
/// `snapshot.meta.request_number`.
#[derive(Debug, Clone)]
pub struct Download {
    /// The restored snapshot, composed when it is stored as a delta chain.
    pub snapshot: Snapshot,
    /// Nominal bytes the download moved: the full image for a root, the
    /// chain sum of stored forms for a composed restore, the recorded
    /// working set's bytes under a composed prefetch (what
    /// `RestoreInfo.bytes_transferred` must report).
    pub nominal: u64,
    /// Blobs the download walked: 1 for a full snapshot, one more per
    /// delta link of a composed restore.
    pub chain_len: usize,
    /// The snapshot's page map, when restores are paged.
    pub page_map: Option<PageMap>,
    /// The working set recorded for the snapshot (sorted pages), read
    /// once here for a record-prefetch restore.
    pub working_set: Option<Vec<u32>>,
}

/// Bytes moved and time charged by a page-granular fetch of a restore.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PageFetch {
    /// Payload bytes moved: all of the pages' bytes while the snapshot is
    /// pooled, none once it is evicted (see [`Orchestrator::page_bytes`]).
    pub bytes: u64,
    /// Transfer plus fault or mapping service time, µs.
    pub us: f64,
    /// Decompression CPU, µs (zero without modeled compression).
    pub decompress_us: f64,
}

/// Per-function orchestrator instance.
///
/// # Examples
///
/// ```
/// use pronghorn_core::{FixedPointPolicy, Orchestrator};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut orch = Orchestrator::new(Box::new(FixedPointPolicy::after_first()), "dynamic-html");
/// let mut rng = SmallRng::seed_from_u64(1);
/// let plan = orch.begin_worker(&mut rng);
/// // No snapshot exists yet: the first worker cold-starts and is told to
/// // checkpoint right after its first request.
/// assert!(plan.download.is_none());
/// assert_eq!(plan.checkpoint_at, Some(1));
/// ```
pub struct Orchestrator {
    policy: Box<dyn Policy>,
    /// This deployment's Object Store: snapshot frames and working-set
    /// manifests, each stored as chunks.
    store: ObjectStore,
    function: String,
    overheads: OverheadTotals,
    /// Reusable frame-encoding scratch: one allocation amortized over every
    /// snapshot upload instead of a fresh buffer per checkpoint.
    frame_scratch: Encoder,
    /// Nominal size of each pooled snapshot, maintained incrementally on
    /// record/evict so the Table 5 peak is O(pool) bookkeeping rather than
    /// a download-and-decode scan of every blob.
    pool_sizes: BTreeMap<SnapshotId, u64>,
    /// How restores materialize snapshots. The lazy strategies page them:
    /// restores may persist working-set manifests, and only record-prefetch
    /// reads them back (eager runs never touch the manifest bucket).
    restore: RestoreStrategy,
    /// Delta-chain lineage index; present only when delta checkpointing
    /// is enabled (the full-snapshot path never consults it).
    chains: Option<ChainIndex>,
    /// The chain depth K at which a lineage consolidates.
    max_depth: u32,
    /// The one pricer of snapshot transfers: it owns the object-store
    /// link, and under the default disabled policy it is the flat store.
    storage: StorageTier,
    /// Snapshots recorded into the pool since the last
    /// [`Self::drain_pool_events`] call, with their stored nominal bytes.
    /// Single-node runners never drain (growth is bounded by checkpoint
    /// count); the cluster layer drains after every provision/serve to
    /// mirror blob residency per node.
    recorded_log: Vec<(SnapshotId, u64)>,
    /// Snapshots pool-evicted since the last drain.
    evicted_log: Vec<SnapshotId>,
}

impl Orchestrator {
    /// Creates an orchestrator for `function` with an empty store.
    pub fn new(policy: Box<dyn Policy>, function: impl Into<String>) -> Self {
        Orchestrator {
            policy,
            store: ObjectStore::new(),
            function: function.into(),
            overheads: OverheadTotals::default(),
            frame_scratch: Encoder::new(),
            pool_sizes: BTreeMap::new(),
            restore: RestoreStrategy::Eager,
            chains: None,
            max_depth: 0,
            storage: StorageTier::new(StoragePolicy::disabled(), TransferModel::default()),
            recorded_log: Vec::new(),
            evicted_log: Vec::new(),
        }
    }

    /// Overrides the Object Store transfer model.
    pub fn with_transfer(mut self, transfer: TransferModel) -> Self {
        self.storage = StorageTier::new(*self.storage.policy(), transfer);
        self
    }

    /// Sets the restore strategy. A lazy strategy enables page-granular
    /// restore: every recorded snapshot's pages become fetchable (see
    /// [`Self::page_bytes`]), restores may persist working-set manifests,
    /// and evictions drop them.
    pub fn with_restore(mut self, restore: RestoreStrategy) -> Self {
        self.restore = restore;
        self
    }

    fn paging(&self) -> bool {
        self.restore != RestoreStrategy::Eager
    }

    /// Payload bytes a fetch of `pages` of snapshot `id` moves: all of
    /// them while the snapshot is pooled, none once it is evicted. The
    /// page map is a pure function of the snapshot, so nothing per page
    /// is stored.
    pub fn page_bytes(&self, id: SnapshotId, map: &PageMap, pages: &[u32]) -> u64 {
        if self.pool_sizes.contains_key(&id) {
            map.bytes_for(pages)
        } else {
            0
        }
    }

    /// Loads the working-set manifest recorded for `id`, if any. A corrupt
    /// manifest decodes as `None` — the restore falls back to recording.
    pub fn load_manifest(&mut self, id: SnapshotId) -> Option<WorkingSetManifest> {
        if !self.paging() {
            return None;
        }
        let [bytes, _, _] = self
            .store
            .get_chunks(MANIFESTS_BUCKET, &self.manifest_key(id))
            .ok()?;
        WorkingSetManifest::from_bytes(&bytes).ok()
    }

    /// Persists a restore's recorded working set — but only while its
    /// snapshot is pooled (an evicted snapshot's manifest would leak
    /// forever) — and tells the policy the snapshot is prefetch-ready, so
    /// selection stops charging it the unrecorded-restore penalty.
    pub fn persist_manifest(&mut self, manifest: &WorkingSetManifest) {
        let id = SnapshotId(manifest.snapshot_id());
        if !self.paging() || !self.pool_sizes.contains_key(&id) {
            return;
        }
        // One chunk, no payload blob: a manifest never dedups.
        let bytes = Bytes::from(manifest.to_bytes());
        let key = self.manifest_key(id);
        self.store.put(MANIFESTS_BUCKET, &key, bytes);
        self.policy.note_prefetch_ready(id);
    }

    /// Checkpoints under `policy`. Enabled, it turns on delta-chain
    /// bookkeeping: recorded snapshots register in a lineage index, deltas
    /// persist only their changed pages, evicted parents stay pinned while
    /// live descendants reference them, composed downloads are accounted
    /// chain-aware, and [`Self::checkpoints_as_delta`] picks each
    /// checkpoint's form.
    pub fn with_delta(mut self, policy: DeltaPolicy) -> Self {
        self.chains = policy.enabled().then(ChainIndex::new);
        self.max_depth = policy.max_depth().unwrap_or(0);
        self
    }

    /// Prices snapshot transfers under `policy`: local-SSD cache, modeled
    /// compression, composed-chain prefetch. The default, a disabled
    /// policy, is the flat object store.
    pub fn with_storage(mut self, policy: StoragePolicy) -> Self {
        self.storage = StorageTier::new(policy, *self.storage.network());
        self
    }

    /// Accumulated storage-hierarchy counters (zeroes when disabled).
    pub fn storage_stats(&self) -> StorageStats {
        self.storage.stats()
    }

    /// Prices `pages` of snapshot `id` in one batched fetch through the
    /// storage tier — SSD bandwidth if the provisioning download staged the
    /// image on the node, wire bytes plus decompression from the store
    /// otherwise, with the snapshot's payload hash seeding the compression
    /// ratio. `us` includes the page-table mapping. Both a record-prefetch
    /// restore's batch and a pre-restored worker's background hydration
    /// are priced here.
    pub fn prefetch_pages(
        &mut self,
        id: SnapshotId,
        map: &PageMap,
        pages: &[u32],
        costs: &FaultCostModel,
    ) -> PageFetch {
        let bytes = self.page_bytes(id, map, pages);
        let price = self.storage.read(id.0, bytes, map.payload_hash());
        PageFetch {
            bytes,
            us: costs.prefetch_us(&price.model, price.billed_bytes, pages.len() as u32),
            decompress_us: price.decompress_us,
        }
    }

    /// Prices demand faults on the first-touched `pages` of snapshot `id`.
    /// Faults are served one at a time (no batching on the demand path),
    /// each through the storage tier at its page's size, with the page's
    /// content hash seeding its compression ratio.
    pub fn fault_pages(
        &mut self,
        id: SnapshotId,
        map: &PageMap,
        pages: &[u32],
        costs: &FaultCostModel,
    ) -> PageFetch {
        let mut fetch = PageFetch {
            bytes: self.page_bytes(id, map, pages),
            ..PageFetch::default()
        };
        for &p in pages {
            let price = self
                .storage
                .read(id.0, map.page_len(p), map.page_hash(p).unwrap_or(0));
            fetch.us += costs.fault_us(&price.model, price.billed_bytes);
            fetch.decompress_us += price.decompress_us;
        }
        fetch
    }

    /// Prices fetching a restored snapshot's image (`nominal` bytes, a
    /// `chain_len`-link chain, payload hash `seed`) from a peer node over
    /// `remote`; see [`StorageTier::price_remote_fetch`].
    pub fn price_remote_fetch(
        &self,
        nominal: u64,
        chain_len: usize,
        seed: u64,
        remote: &TransferModel,
    ) -> SimDuration {
        self.storage
            .price_remote_fetch(nominal, chain_len, seed, remote)
    }

    /// Admits snapshot `id`, just fetched from a peer node, into this
    /// node's SSD cache with its θ-weight as priority.
    pub fn admit_fetched(&mut self, id: SnapshotId, nominal: u64) {
        if self.storage.cache().is_some() {
            let weight = self.snapshot_weight(id);
            self.storage.admit(id.0, nominal, weight, &[]);
        }
    }

    /// The θ-weight the policy has learned for checkpoints taken at
    /// `request_number` (0.0 for policies without weights) — the cache
    /// tier's admission priority.
    fn theta_weight(&self, request_number: u32) -> f64 {
        self.policy.theta().map_or(0.0, |w| w.get(request_number))
    }

    /// The θ-weight of pooled snapshot `id` (0.0 when untracked).
    fn snapshot_weight(&self, id: SnapshotId) -> f64 {
        self.policy
            .snapshot_request_number(id)
            .map(|r| self.theta_weight(r))
            .unwrap_or(0.0)
    }

    /// Whether the next checkpoint of a worker restored from `parent` is a
    /// delta against it: yes while `parent` is pooled and its chain is
    /// below depth K. At depth K the lineage consolidates: the checkpoint
    /// is a fresh full root, counted in [`ChainStats::consolidations`]. An
    /// evicted or unknown parent, or delta checkpoints off, also give a
    /// full root.
    pub fn checkpoints_as_delta(&mut self, parent: SnapshotId) -> bool {
        let Some(chains) = self.chains.as_mut().filter(|c| c.is_live(parent.0)) else {
            return false;
        };
        let below_k = chains.depth(parent.0).unwrap_or(0) < self.max_depth;
        if !below_k {
            chains.note_consolidation();
        }
        below_k
    }

    /// The accumulated chain counters (zeroes when delta is disabled).
    pub fn chain_stats(&self) -> ChainStats {
        self.chains.as_ref().map(|c| *c.stats()).unwrap_or_default()
    }

    /// The policy being orchestrated.
    pub fn policy(&self) -> &dyn Policy {
        self.policy.as_ref()
    }

    /// Accumulated overheads.
    pub fn overheads(&self) -> &OverheadTotals {
        &self.overheads
    }

    /// Restarts every accumulated counter (overheads, store, chain and
    /// storage-tier accounting) and keeps what was learned: the pool, the
    /// chains, the cache contents and θ. The pool's peak restarts from
    /// its current size.
    pub fn reset_measurements(&mut self) {
        self.overheads = OverheadTotals {
            peak_pool_nominal_bytes: self.pool_nominal_bytes(),
            ..OverheadTotals::default()
        };
        self.store.reset_stats();
        if let Some(chains) = &mut self.chains {
            chains.reset_stats();
        }
        self.storage.reset_stats();
    }

    /// The object store's accounting.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    fn blob_key(&self, id: SnapshotId) -> String {
        format!("{}/{id}", self.function)
    }

    fn manifest_key(&self, id: SnapshotId) -> String {
        format!("{}/{:020}", self.function, id.0)
    }

    /// Fixed compute cost of the start decision, per policy kind. The
    /// request-centric policy reads the weight vector and pool metadata
    /// and evaluates a softmax; the baselines make a trivial choice —
    /// Figure 7 reports the resulting ≤2.5× startup-overhead gap.
    fn decision_cost_us(&self) -> f64 {
        match self.policy.kind() {
            PolicyKind::Cold => 2_000.0,
            PolicyKind::AfterFirst | PolicyKind::AfterInit => 9_000.0,
            PolicyKind::RequestCentric => 16_000.0,
        }
    }

    /// Worker start: Figure 2 steps 3–4 plus the snapshot download.
    pub fn begin_worker(&mut self, rng: &mut dyn RngCore) -> WorkerPlan {
        // The decision plus one Database read of the policy state (step 4).
        let overhead_us = self.decision_cost_us() + KvCosts::PAPER.read_us;

        // Blob transfer is provisioning work (charged to the worker plan
        // and the Table 5 byte accounting), not orchestrator decision
        // overhead — Figure 7's startup component is the decision cost.
        let mut transfer_us = 0.0;
        // A missing or corrupt blob degrades to a cold start rather than
        // failing the worker.
        let download = match self.policy.on_worker_start(rng) {
            StartDecision::Cold => None,
            StartDecision::Restore(id) => self.download_snapshot(id).map(|mut dl| {
                // Built and read once: the page map and the recorded
                // working set serve both the download and the restore.
                dl.page_map = self.paging().then(|| {
                    let (hash, size) = (dl.snapshot.payload_hash(), dl.snapshot.nominal_size);
                    PageMap::for_snapshot(&self.function, hash, size, DEFAULT_PAGE_SIZE)
                });
                dl.working_set = (self.restore == RestoreStrategy::RecordPrefetch)
                    .then(|| self.load_manifest(id))
                    .flatten()
                    .map(|m| m.to_sorted_vec());
                let price = self.price_download(id, &dl);
                transfer_us = price.transfer_us;
                saturating_accumulate(
                    "nominal_bytes_downloaded",
                    &mut self.overheads.nominal_bytes_downloaded,
                    price.accounted_nominal,
                );
                if dl.chain_len > 1 {
                    if let Some(chains) = &mut self.chains {
                        chains.note_composed_restore(price.accounted_nominal);
                    }
                }
                dl.nominal = price.accounted_nominal;
                dl
            }),
        };
        let resume_request = download
            .as_ref()
            .map_or(0, |dl| dl.snapshot.meta.request_number);
        let checkpoint_at = self.policy.plan_checkpoint(resume_request, rng);

        self.overheads.startup_us += overhead_us;
        self.overheads.startups += 1;

        WorkerPlan {
            checkpoint_at,
            startup_overhead: SimDuration::from_micros_f64(overhead_us + transfer_us),
            download,
        }
    }

    /// Downloads snapshot `id`, composing its delta chain, with `nominal`
    /// the chain sum of stored forms. `None` when a blob is missing, a
    /// frame fails its checks, or the parent walk exceeds
    /// [`MAX_CHAIN_WALK`] links: every such restore starts cold.
    fn download_snapshot(&mut self, id: SnapshotId) -> Option<Download> {
        // Walk parent references child-first until a full frame (the
        // chain root) is found; a full snapshot is a chain of length 1.
        let mut frames: Vec<DeltaFrame> = Vec::new();
        let mut cursor = id;
        let mut nominal = 0u64;
        let mut snapshot = loop {
            let [header, payload, trailer] = self
                .store
                .get_chunks(SNAPSHOT_BUCKET, &self.blob_key(cursor))
                .ok()?;
            let frame = Frame {
                header,
                payload,
                trailer,
            };
            match frame.parse().ok()? {
                Stored::Delta(frame) => {
                    nominal += frame.delta.dirty_nominal_bytes;
                    cursor = frame.delta.parent;
                    frames.push(frame);
                    if frames.len() > MAX_CHAIN_WALK {
                        return None;
                    }
                }
                Stored::Full(root) => break root,
            }
        };
        nominal += snapshot.nominal_size;
        // Compose root-first: `frames` is child-first, so apply in
        // reverse. Each step checks the parent's and the composed
        // payload's hashes.
        for frame in frames.iter().rev() {
            snapshot = frame.compose(&snapshot).ok()?;
        }
        Some(Download {
            snapshot,
            nominal,
            chain_len: frames.len() + 1,
            page_map: None,
            working_set: None,
        })
    }

    /// Prices the provisioning-path transfer of a downloaded snapshot
    /// through the storage tier: the serial chain walk of the flat store,
    /// SSD/compression routing with a tier, and — under the composed-
    /// prefetch policy, when `dl` carries a recorded working set — only
    /// the composed chain's touched pages in one batched request.
    fn price_download(&mut self, id: SnapshotId, dl: &Download) -> DownloadPrice {
        // The leaf's page map already resolves each page's newest writer
        // in the chain, so sizing the touched pages against it prices the
        // composed fetch without walking the chain.
        let working_set = dl
            .page_map
            .as_ref()
            .zip(dl.working_set.as_deref())
            .filter(|(_, pages)| self.storage.policy().composed_prefetch && !pages.is_empty())
            .map(|(map, pages)| (map.bytes_for(pages), pages.len()));
        // Admission priority, and the chain under the leaf pinned with it
        // (a composed image on SSD is only restorable while its ancestor
        // deltas survive): only a cache reads them.
        let (weight, ancestors) = if self.storage.cache().is_some() {
            let chain = self.chains.as_ref().map(|c| c.chain_to_root(id.0));
            let ancestors = chain.map(|c| c.into_iter().skip(1).collect());
            (self.snapshot_weight(id), ancestors.unwrap_or_default())
        } else {
            (0.0, Vec::new())
        };
        self.storage.price_restore_download(DownloadRequest {
            id: id.0,
            chain_nominal: dl.nominal,
            chain_len: dl.chain_len,
            seed: dl.snapshot.payload_hash(),
            weight,
            working_set,
            ancestors: &ancestors,
        })
    }

    /// Request completion: Figure 2 step 3 — fold the end-to-end latency
    /// into the policy and pay the Database write of the result.
    pub fn complete_request(&mut self, request_number: u32, latency_us: f64) -> SimDuration {
        self.policy.record_latency(request_number, latency_us);
        // One Database round trip for either policy family; a policy with
        // a weight vector additionally folds the sample into it (a few
        // array operations, §5.3: "some extra array read-write operations,
        // whose computation time is outweighed by network latency").
        let mut overhead_us = 200.0 + KvCosts::PAPER.write_us;
        if self.policy.theta().is_some() {
            overhead_us += 150.0;
        }
        self.overheads.request_us += overhead_us;
        self.overheads.requests += 1;
        SimDuration::from_micros_f64(overhead_us)
    }

    /// Snapshot recording: Figure 2 steps 7–8 — upload the blob, register
    /// metadata, and delete whatever the pool evicted. `engine_downtime`
    /// is the checkpoint cost reported by the Checkpoint Engine.
    ///
    /// What is stored follows the engine's [`CheckpointOutcome`]: the
    /// whole payload for a full snapshot, or only the changed pages plus a
    /// parent reference for a delta, which must be against a parent
    /// [`Self::checkpoints_as_delta`] approved. Deltas upload (and charge
    /// transfer on) their dirty nominal bytes; the pool entry handed to the
    /// policy still carries the full image size, so eviction decisions are
    /// unchanged.
    pub fn record_snapshot(
        &mut self,
        snapshot: &Snapshot,
        outcome: &CheckpointOutcome,
        engine_downtime: SimDuration,
        rng: &mut dyn RngCore,
    ) -> SimDuration {
        let mut overhead_us = engine_downtime.as_micros() as f64;

        let delta = match outcome {
            CheckpointOutcome::Delta(d) => Some(d),
            CheckpointOutcome::Full => None,
        };

        // The nominal bytes this checkpoint's *stored form* occupies and
        // moves over the network: dirty pages for a delta, the full image
        // for a root.
        let stored_nominal = match delta {
            Some(d) => d.dirty_nominal_bytes.min(snapshot.nominal_size),
            None => snapshot.nominal_size,
        };

        // Frame into the reusable scratch encoder and upload as chunks, so
        // byte-identical payloads (twin lineages) dedup in the store.
        let frame = match delta {
            Some(d) => d.to_frame_with(snapshot, &mut self.frame_scratch),
            None => snapshot.to_frame_with(&mut self.frame_scratch),
        };
        // A full frame's payload is the snapshot's, whose hash it carries;
        // a delta's is its changed pages, which nothing has hashed yet.
        let payload_hash = match delta {
            Some(_) => fnv1a_wide(&frame.payload),
            None => snapshot.payload_hash(),
        };
        self.store.put_chunked(
            SNAPSHOT_BUCKET,
            &self.blob_key(snapshot.id),
            frame.header,
            frame.payload,
            payload_hash,
            frame.trailer,
        );
        // Wire bytes over the link plus any compression CPU, admitted
        // write-through to the local SSD at the snapshot's θ-weight.
        let weight = match self.storage.cache() {
            Some(_) => self.theta_weight(snapshot.meta.request_number),
            None => 0.0,
        };
        overhead_us += self.storage.price_upload(
            snapshot.id.0,
            stored_nominal,
            snapshot.payload_hash(),
            weight,
        );
        saturating_accumulate(
            "nominal_bytes_uploaded",
            &mut self.overheads.nominal_bytes_uploaded,
            stored_nominal,
        );

        if let Some(chains) = &mut self.chains {
            match delta {
                Some(d) => {
                    chains.insert_delta(snapshot.id.0, d.parent.0, stored_nominal);
                }
                None => chains.insert_root(snapshot.id.0, stored_nominal),
            }
        }
        self.pool_sizes.insert(snapshot.id, stored_nominal);
        self.recorded_log.push((snapshot.id, stored_nominal));
        if self.paging() {
            // The snapshot's page table is metadata the restore path
            // maps from: one extra metadata write's worth of cost.
            overhead_us += KvCosts::PAPER.write_us;
        }
        let evicted = self.policy.on_snapshot_taken(
            PoolEntry {
                id: snapshot.id,
                request_number: snapshot.meta.request_number,
                size_bytes: snapshot.nominal_size,
            },
            rng,
        );
        // Pool metadata write (step 8).
        overhead_us += KvCosts::PAPER.write_us;
        for entry in evicted {
            // Chain-aware release: the blob may only be deleted when no
            // live delta child references it; the index returns what is
            // actually free now (possibly pinned ancestors this eviction
            // was the last holdout for).
            let freed: Vec<SnapshotId> = match &mut self.chains {
                Some(chains) => chains
                    .evict(entry.id.0)
                    .into_iter()
                    .map(SnapshotId)
                    .collect(),
                None => vec![entry.id],
            };
            for fid in freed {
                let _ = self.store.delete(SNAPSHOT_BUCKET, &self.blob_key(fid));
                // SSD residency must not outlive the backing blob.
                self.storage.release(fid.0);
            }
            self.pool_sizes.remove(&entry.id);
            self.evicted_log.push(entry.id);
            if self.paging() {
                // Idempotent: most snapshots never record a manifest.
                let _ = self
                    .store
                    .delete(MANIFESTS_BUCKET, &self.manifest_key(entry.id));
            }
            overhead_us += KvCosts::PAPER.write_us;
        }

        // Track the peak nominal footprint of the pool (Table 5).
        let pooled: u64 = self.pool_nominal_bytes();
        self.overheads.peak_pool_nominal_bytes = self.overheads.peak_pool_nominal_bytes.max(pooled);

        self.overheads.checkpoint_us += overhead_us;
        self.overheads.checkpoints += 1;
        SimDuration::from_micros_f64(overhead_us)
    }

    /// Current nominal bytes held by pooled snapshots — stored forms
    /// (dirty bytes for deltas), plus any evicted-but-pinned ancestors
    /// whose blobs the store genuinely still holds for live descendants.
    ///
    /// Maintained incrementally from record/evict events; the previous
    /// implementation listed the bucket and downloaded + decoded every
    /// blob on each checkpoint just to sum sizes.
    pub fn pool_nominal_bytes(&self) -> u64 {
        let pooled: u64 = self.pool_sizes.values().sum();
        pooled + self.chains.as_ref().map_or(0, |c| c.pinned_nominal_bytes())
    }

    /// Drains the pool-event logs accumulated since the last call:
    /// snapshots recorded into the pool (with the nominal bytes of their
    /// stored form) and snapshots evicted from it, each in occurrence
    /// order. The cluster layer consumes these to keep per-node blob
    /// residency in sync with pool membership; single-node runners never
    /// call it.
    pub fn drain_pool_events(&mut self) -> (Vec<(SnapshotId, u64)>, Vec<SnapshotId>) {
        (
            std::mem::take(&mut self.recorded_log),
            std::mem::take(&mut self.evicted_log),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::FixedPointPolicy;
    use crate::config::PolicyConfig;
    use crate::request_centric::RequestCentricPolicy;
    use pronghorn_checkpoint::CheckpointOutcome::Full;
    use pronghorn_checkpoint::{SnapshotDelta, SnapshotMeta};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn snapshot(request_number: u32, tag: u8) -> Snapshot {
        Snapshot::new(
            SnapshotMeta {
                function: "f".into(),
                request_number,
                runtime: "jvm".into(),
            },
            Bytes::from(vec![tag; 8]),
            12 * 1024 * 1024,
        )
    }

    fn orchestrator(policy: Box<dyn Policy>) -> Orchestrator {
        Orchestrator::new(policy, "f")
    }

    const K4: DeltaPolicy = DeltaPolicy::Enabled { max_depth: 4 };

    /// Delta-chain depth of `id` (0 for a root), when tracked.
    fn depth(orch: &Orchestrator, id: SnapshotId) -> Option<u32> {
        orch.chains.as_ref().and_then(|c| c.depth(id.0))
    }

    /// The download `plan` restores from; a cold plan fails the test.
    fn download(plan: &WorkerPlan) -> &Download {
        plan.download
            .as_ref()
            .expect("the plan restores a snapshot")
    }

    #[test]
    fn first_worker_cold_starts_and_plans() {
        let mut orch = orchestrator(Box::new(FixedPointPolicy::after_first()));
        let mut rng = SmallRng::seed_from_u64(1);
        let plan = orch.begin_worker(&mut rng);
        assert!(plan.download.is_none());
        assert_eq!(plan.checkpoint_at, Some(1));
        assert!(plan.startup_overhead > SimDuration::ZERO);
    }

    #[test]
    fn snapshot_round_trips_through_store() {
        let mut orch = orchestrator(Box::new(FixedPointPolicy::after_first()));
        let mut rng = SmallRng::seed_from_u64(2);
        orch.begin_worker(&mut rng);
        let snap = snapshot(1, 7);
        let overhead = orch.record_snapshot(&snap, &Full, SimDuration::from_millis(65), &mut rng);
        assert!(overhead >= SimDuration::from_millis(65));
        // Next worker restores it, resuming at request 1.
        let plan = orch.begin_worker(&mut rng);
        let dl = download(&plan);
        assert_eq!(dl.snapshot.id, snap.id);
        assert_eq!(dl.snapshot.meta.request_number, 1);
        assert_eq!((dl.nominal, dl.chain_len), (snap.nominal_size, 1));
        assert_eq!(plan.checkpoint_at, None);
    }

    #[test]
    fn missing_blob_degrades_to_cold_start() {
        let mut orch = orchestrator(Box::new(FixedPointPolicy::after_first()));
        let mut rng = SmallRng::seed_from_u64(3);
        orch.begin_worker(&mut rng);
        let snap = snapshot(1, 7);
        orch.record_snapshot(&snap, &Full, SimDuration::from_millis(65), &mut rng);
        // Sabotage: delete the blob behind the policy's back.
        orch.store
            .delete(SNAPSHOT_BUCKET, &format!("f/{}", snap.id))
            .unwrap();
        let plan = orch.begin_worker(&mut rng);
        assert!(plan.download.is_none());
    }

    /// Replaces the stored frame of `id` with a self-consistent copy whose
    /// payload has one byte flipped: the store's own checksums pass, so
    /// only the frame check can catch it.
    fn corrupt_stored_payload(orch: &mut Orchestrator, id: SnapshotId) {
        let key = orch.blob_key(id);
        let [header, payload, trailer] = orch.store.get_chunks(SNAPSHOT_BUCKET, &key).unwrap();
        let mut flipped = payload.to_vec();
        flipped[0] ^= 0x01;
        let hash = fnv1a_wide(&flipped);
        orch.store.put_chunked(
            SNAPSHOT_BUCKET,
            &key,
            header,
            Bytes::from(flipped),
            hash,
            trailer,
        );
        assert!(orch.store.get_chunks(SNAPSHOT_BUCKET, &key).is_ok());
    }

    #[test]
    fn corrupt_frame_degrades_to_cold_start() {
        // A pooled root.
        let mut orch = orchestrator(Box::new(FixedPointPolicy::after_first()));
        let mut rng = SmallRng::seed_from_u64(36);
        orch.begin_worker(&mut rng);
        let snap = snapshot(1, 7);
        orch.record_snapshot(&snap, &Full, SimDuration::from_millis(65), &mut rng);
        corrupt_stored_payload(&mut orch, snap.id);
        let downloaded = orch.overheads().nominal_bytes_downloaded;
        let plan = orch.begin_worker(&mut rng);
        assert!(plan.download.is_none());
        assert_eq!(orch.overheads().nominal_bytes_downloaded, downloaded);

        // A mid-chain delta: root <- mid <- leaf, restoring the leaf.
        let mut orch = orchestrator(Box::new(LatestOnlyPolicy { pooled: None })).with_delta(K4);
        let root = snapshot(1, 7);
        orch.record_snapshot(&root, &Full, SimDuration::from_millis(65), &mut rng);
        let leaf = record_chain(&mut orch, root, 2, &mut rng).id;
        assert_eq!(depth(&orch, leaf), Some(2));
        let mid = orch.chains.as_ref().unwrap().chain_to_root(leaf.0)[1];
        corrupt_stored_payload(&mut orch, SnapshotId(mid));
        let downloaded = orch.overheads().nominal_bytes_downloaded;
        let plan = orch.begin_worker(&mut rng);
        assert!(plan.download.is_none());
        assert_eq!(orch.overheads().nominal_bytes_downloaded, downloaded);
    }

    #[test]
    fn twin_snapshots_dedup_in_the_store() {
        let mut orch = orchestrator(Box::new(FixedPointPolicy::after_first()));
        let mut rng = SmallRng::seed_from_u64(22);
        orch.begin_worker(&mut rng);
        // Two snapshots with byte-identical payloads (twin lineages) but
        // distinct nonces: the ids differ while the payload blob is stored
        // once.
        let meta = |r| SnapshotMeta {
            function: "f".into(),
            request_number: r,
            runtime: "jvm".into(),
        };
        let payload = Bytes::from(vec![7u8; 8]);
        let a = Snapshot::with_nonce(meta(1), payload.clone(), 12 << 20, 1);
        let b = Snapshot::with_nonce(meta(1), payload, 12 << 20, 2);
        assert_ne!(a.id, b.id, "nonce must keep twin ids distinct");
        orch.record_snapshot(&a, &Full, SimDuration::from_millis(65), &mut rng);
        orch.record_snapshot(&b, &Full, SimDuration::from_millis(65), &mut rng);
        let stats = orch.store.stats();
        assert!(stats.bytes_deduped > 0, "twin payload was not deduped");
        // The after-first policy pools exactly one snapshot, so one twin
        // was evicted — dropping a reference to the shared blob. The §7.2
        // guard means the surviving twin must still download intact.
        assert_eq!(stats.objects, 1);
        let plan = orch.begin_worker(&mut rng);
        let restored = &download(&plan).snapshot;
        assert!(restored.id == a.id || restored.id == b.id);
        assert_eq!(restored.payload(), a.payload());
    }

    #[test]
    fn eviction_deletes_blobs_from_store() {
        let config = PolicyConfig::paper_pypy().with_capacity(2).with_beta(4);
        let mut orch = orchestrator(Box::new(RequestCentricPolicy::new(config)));
        let mut rng = SmallRng::seed_from_u64(5);
        for i in 0..6 {
            let snap = snapshot(i, i as u8);
            orch.record_snapshot(&snap, &Full, SimDuration::from_millis(70), &mut rng);
        }
        let objects = orch.store.stats().objects;
        assert!(objects <= 2, "{objects} blobs");
        assert_eq!(orch.policy().pool_len(), objects as usize);
    }

    fn manifest_of(snap: &Snapshot, pages: &[u32]) -> WorkingSetManifest {
        let mut manifest = WorkingSetManifest::new("f", snap.id.0, DEFAULT_PAGE_SIZE);
        manifest.record_all(pages);
        manifest
    }

    fn page_map_of(snap: &Snapshot) -> PageMap {
        PageMap::for_snapshot(
            "f",
            snap.payload_hash(),
            snap.nominal_size,
            DEFAULT_PAGE_SIZE,
        )
    }

    #[test]
    fn pages_are_fetchable_exactly_while_pooled() {
        let mut orch = orchestrator(Box::new(LatestOnlyPolicy { pooled: None }))
            .with_restore(RestoreStrategy::RecordPrefetch);
        let mut rng = SmallRng::seed_from_u64(31);
        let first = snapshot(1, 1);
        let map = page_map_of(&first);
        let pages = [0, 1, 5, map.page_count() - 1];
        // Not yet recorded: nothing to fetch.
        assert_eq!(orch.page_bytes(first.id, &map, &pages), 0);
        orch.record_snapshot(&first, &Full, SimDuration::from_millis(70), &mut rng);
        assert_eq!(
            orch.page_bytes(first.id, &map, &pages),
            map.bytes_for(&pages)
        );
        assert_eq!(orch.page_bytes(first.id, &map, &[]), 0);
        // The next recording evicts it; a lazily restored worker that
        // outlives its snapshot fetches nothing more.
        orch.record_snapshot(
            &snapshot(2, 2),
            &Full,
            SimDuration::from_millis(70),
            &mut rng,
        );
        assert_eq!(orch.page_bytes(first.id, &map, &pages), 0);
        // No per-page objects: only the two snapshot blobs were ever put.
        assert_eq!(orch.store.stats().puts, 2);
    }

    #[test]
    fn evicted_snapshot_loses_its_manifest() {
        let mut orch = orchestrator(Box::new(LatestOnlyPolicy { pooled: None }))
            .with_restore(RestoreStrategy::RecordPrefetch);
        let mut rng = SmallRng::seed_from_u64(32);
        let first = snapshot(1, 1);
        orch.record_snapshot(&first, &Full, SimDuration::from_millis(70), &mut rng);
        let manifest = manifest_of(&first, &[3, 1, 4]);
        orch.persist_manifest(&manifest);
        assert_eq!(orch.load_manifest(first.id), Some(manifest));
        // The snapshot and its manifest.
        assert_eq!(orch.store.stats().objects, 2);
        orch.record_snapshot(
            &snapshot(2, 2),
            &Full,
            SimDuration::from_millis(70),
            &mut rng,
        );
        assert!(orch.load_manifest(first.id).is_none());
        // Only the second snapshot is left.
        assert_eq!(orch.store.stats().objects, 1);
    }

    #[test]
    fn recording_for_an_unpooled_snapshot_is_not_persisted() {
        let mut orch = orchestrator(Box::new(LatestOnlyPolicy { pooled: None }))
            .with_restore(RestoreStrategy::RecordPrefetch);
        let mut rng = SmallRng::seed_from_u64(33);
        // Never recorded.
        let stray = snapshot(1, 1);
        orch.persist_manifest(&manifest_of(&stray, &[0]));
        // Recorded, then evicted before its restore's recording grew.
        let evicted = snapshot(2, 2);
        orch.record_snapshot(&evicted, &Full, SimDuration::from_millis(70), &mut rng);
        orch.record_snapshot(
            &snapshot(3, 3),
            &Full,
            SimDuration::from_millis(70),
            &mut rng,
        );
        orch.persist_manifest(&manifest_of(&evicted, &[0]));
        // Only the pooled third snapshot is stored.
        assert_eq!(orch.store.stats().objects, 1);
        assert!(orch.load_manifest(stray.id).is_none());
        assert!(orch.load_manifest(evicted.id).is_none());
    }

    #[test]
    fn corrupt_manifest_prices_the_download_without_a_working_set() {
        let mut orch = orchestrator(Box::new(FixedPointPolicy::after_first()))
            .with_restore(RestoreStrategy::RecordPrefetch)
            .with_storage(StoragePolicy::disabled().with_composed_prefetch());
        let mut rng = SmallRng::seed_from_u64(34);
        orch.begin_worker(&mut rng);
        let snap = snapshot(1, 7);
        orch.record_snapshot(&snap, &Full, SimDuration::from_millis(65), &mut rng);
        let pages = [0, 2, 9];
        orch.persist_manifest(&manifest_of(&snap, &pages));
        // A recorded working set: the download moves only those pages.
        let plan = orch.begin_worker(&mut rng);
        let dl = download(&plan);
        assert_eq!(dl.snapshot.id, snap.id);
        assert_eq!(dl.working_set.as_deref(), Some(&pages[..]));
        assert_eq!(dl.nominal, page_map_of(&snap).bytes_for(&pages));
        assert_eq!(orch.storage_stats().composed_prefetches, 1);
        // Garbage over the stored manifest decodes as no manifest, and the
        // download falls back to the whole image.
        let key = orch.manifest_key(snap.id);
        let garbage = Bytes::from_static(b"not a manifest");
        orch.store.put(MANIFESTS_BUCKET, &key, garbage);
        assert!(orch.load_manifest(snap.id).is_none());
        let plan = orch.begin_worker(&mut rng);
        let dl = download(&plan);
        assert_eq!(dl.snapshot.id, snap.id);
        assert_eq!(dl.working_set, None);
        assert_eq!(dl.nominal, snap.nominal_size);
        assert_eq!(orch.storage_stats().composed_prefetches, 1);
    }

    #[test]
    fn eager_orchestrator_never_touches_page_buckets() {
        let mut orch = orchestrator(Box::new(FixedPointPolicy::after_first()));
        let mut rng = SmallRng::seed_from_u64(35);
        let snap = snapshot(1, 1);
        orch.record_snapshot(&snap, &Full, SimDuration::from_millis(65), &mut rng);
        // Without paging a recording is never persisted or loaded.
        orch.persist_manifest(&manifest_of(&snap, &[0, 1]));
        assert!(orch.load_manifest(snap.id).is_none());
        // The snapshot is the only object ever put or read.
        let stats = orch.store.stats();
        assert_eq!((stats.objects, stats.puts, stats.gets), (1, 1, 0));
    }

    /// Pools only the newest snapshot, evicting the previous one — the
    /// shape that exercises parent pinning (a delta child evicting the
    /// root it still references).
    struct LatestOnlyPolicy {
        pooled: Option<PoolEntry>,
    }

    impl Policy for LatestOnlyPolicy {
        fn kind(&self) -> PolicyKind {
            PolicyKind::AfterFirst
        }
        fn on_worker_start(&mut self, _rng: &mut dyn RngCore) -> StartDecision {
            match &self.pooled {
                Some(entry) => StartDecision::Restore(entry.id),
                None => StartDecision::Cold,
            }
        }
        fn plan_checkpoint(&mut self, _start_request: u32, _rng: &mut dyn RngCore) -> Option<u32> {
            None
        }
        fn record_latency(&mut self, _request_number: u32, _latency_us: f64) {}
        fn on_snapshot_taken(
            &mut self,
            entry: PoolEntry,
            _rng: &mut dyn RngCore,
        ) -> Vec<PoolEntry> {
            self.pooled.replace(entry).into_iter().collect()
        }
        fn snapshot_request_number(&self, id: SnapshotId) -> Option<u32> {
            self.pooled
                .as_ref()
                .filter(|e| e.id == id)
                .map(|e| e.request_number)
        }
        fn pool_len(&self) -> usize {
            usize::from(self.pooled.is_some())
        }
    }

    fn delta_between(parent: &Snapshot, child: &Snapshot, dirty_nominal: u64) -> SnapshotDelta {
        use pronghorn_checkpoint::delta::{diff_payload, PAYLOAD_DIFF_PAGE_SIZE};
        SnapshotDelta {
            parent: parent.id,
            parent_payload_hash: parent.payload_hash(),
            page_size: PAYLOAD_DIFF_PAGE_SIZE,
            total_len: child.payload().len() as u64,
            pages: diff_payload(parent.payload(), child.payload(), PAYLOAD_DIFF_PAGE_SIZE),
            dirty_nominal_bytes: dirty_nominal,
        }
    }

    /// Records `links` deltas in a line under the recorded `root`, each
    /// its parent's payload with one more byte flipped, returning the
    /// leaf.
    fn record_chain(
        orch: &mut Orchestrator,
        root: Snapshot,
        links: u32,
        rng: &mut SmallRng,
    ) -> Snapshot {
        let mut parent = root;
        for r in parent.meta.request_number + 1..=parent.meta.request_number + links {
            let mut bytes = parent.payload().to_vec();
            bytes[r as usize % 8] ^= 0xff;
            let child = Snapshot::with_nonce(
                SnapshotMeta {
                    function: "f".into(),
                    request_number: r,
                    runtime: "jvm".into(),
                },
                Bytes::from(bytes),
                12 * 1024 * 1024,
                u64::from(r),
            );
            let delta = delta_between(&parent, &child, 1024 * 1024);
            let outcome = CheckpointOutcome::Delta(delta);
            orch.record_snapshot(&child, &outcome, SimDuration::from_millis(30), rng);
            parent = child;
        }
        parent
    }

    #[test]
    fn delta_record_pins_evicted_parent_and_composes_on_restore() {
        let mut orch = orchestrator(Box::new(LatestOnlyPolicy { pooled: None })).with_delta(K4);
        let mut rng = SmallRng::seed_from_u64(41);
        orch.begin_worker(&mut rng);
        let root = snapshot(1, 7);
        orch.record_snapshot(&root, &Full, SimDuration::from_millis(65), &mut rng);
        assert_eq!(depth(&orch, root.id), Some(0));
        // Child of the root: same payload with one byte flipped.
        let mut child_bytes = root.payload().to_vec();
        child_bytes[3] ^= 0xff;
        let child = Snapshot::with_nonce(
            SnapshotMeta {
                function: "f".into(),
                request_number: 2,
                runtime: "jvm".into(),
            },
            Bytes::from(child_bytes),
            12 * 1024 * 1024,
            9,
        );
        let dirty = 2 * 1024 * 1024;
        let delta = delta_between(&root, &child, dirty);
        // The after-first pool holds one snapshot: recording the child
        // evicts the root — which must stay pinned, not deleted, because
        // the child's delta references it.
        orch.record_snapshot(
            &child,
            &CheckpointOutcome::Delta(delta),
            SimDuration::from_millis(30),
            &mut rng,
        );
        assert_eq!(depth(&orch, child.id), Some(1));
        let stats = orch.chain_stats();
        assert_eq!(stats.roots, 1);
        assert_eq!(stats.deltas, 1);
        assert_eq!(stats.deferred_releases, 1, "root release must defer");
        assert_eq!(stats.delta_nominal_bytes, dirty);
        // Upload accounting: full image once, then only the dirty bytes.
        assert_eq!(
            orch.overheads().nominal_bytes_uploaded,
            root.nominal_size + dirty
        );
        // Pinned root still counts toward pool storage.
        assert_eq!(orch.pool_nominal_bytes(), dirty + root.nominal_size);
        // The next worker restores the child by composing the chain.
        let plan = orch.begin_worker(&mut rng);
        let dl = download(&plan);
        assert_eq!(dl.snapshot, child);
        assert_eq!(dl.nominal, root.nominal_size + dirty);
        assert_eq!(dl.chain_len, 2);
        let stats = orch.chain_stats();
        assert_eq!(stats.composed_restores, 1);
        assert_eq!(stats.composed_nominal_downloaded, root.nominal_size + dirty);
    }

    #[test]
    fn a_live_parent_below_k_gives_a_delta() {
        let mut orch = orchestrator(Box::new(LatestOnlyPolicy { pooled: None })).with_delta(K4);
        let mut rng = SmallRng::seed_from_u64(42);
        let root = snapshot(1, 7);
        orch.record_snapshot(&root, &Full, SimDuration::from_millis(65), &mut rng);
        assert!(orch.checkpoints_as_delta(root.id));
        // Depth K - 1 is still below K.
        let leaf = record_chain(&mut orch, root, 3, &mut rng);
        assert_eq!(depth(&orch, leaf.id), Some(3));
        assert!(orch.checkpoints_as_delta(leaf.id));
        assert_eq!(orch.chain_stats().consolidations, 0);
    }

    #[test]
    fn a_parent_at_depth_k_gives_a_consolidating_full_root() {
        let mut orch = orchestrator(Box::new(LatestOnlyPolicy { pooled: None })).with_delta(K4);
        let mut rng = SmallRng::seed_from_u64(45);
        let root = snapshot(1, 7);
        orch.record_snapshot(&root, &Full, SimDuration::from_millis(65), &mut rng);
        let leaf = record_chain(&mut orch, root, 4, &mut rng);
        assert_eq!(depth(&orch, leaf.id), Some(4));
        assert!(!orch.checkpoints_as_delta(leaf.id));
        assert_eq!(orch.chain_stats().consolidations, 1);
        // The rebased lineage starts over from the full root it records.
        let rebased = snapshot(6, 9);
        orch.record_snapshot(&rebased, &Full, SimDuration::from_millis(65), &mut rng);
        assert_eq!(depth(&orch, rebased.id), Some(0));
        assert!(orch.checkpoints_as_delta(rebased.id));
    }

    #[test]
    fn a_dead_parent_gives_a_full_root() {
        let mut orch = orchestrator(Box::new(LatestOnlyPolicy { pooled: None })).with_delta(K4);
        let mut rng = SmallRng::seed_from_u64(46);
        let root = snapshot(1, 7);
        // Never recorded: unknown to the chain index.
        assert!(!orch.checkpoints_as_delta(root.id));
        orch.record_snapshot(&root, &Full, SimDuration::from_millis(65), &mut rng);
        // Evicted: the next root takes its place in the pool.
        let next = snapshot(2, 8);
        orch.record_snapshot(&next, &Full, SimDuration::from_millis(65), &mut rng);
        assert!(!orch.checkpoints_as_delta(root.id));
        assert!(orch.checkpoints_as_delta(next.id));
        // Without delta checkpoints no parent is live.
        let mut full = orchestrator(Box::new(LatestOnlyPolicy { pooled: None }));
        full.record_snapshot(&root, &Full, SimDuration::from_millis(65), &mut rng);
        assert!(!full.checkpoints_as_delta(root.id));
        assert_eq!(orch.chain_stats().consolidations, 0);
        assert_eq!(full.chain_stats(), ChainStats::default());
    }

    #[test]
    fn full_path_accounting_is_unchanged_by_delta_bookkeeping() {
        // Identical seeds, with and without chains: recording only full
        // snapshots must produce identical overheads and plans.
        let run = |chains: bool| {
            let delta = if chains { K4 } else { DeltaPolicy::Disabled };
            let mut orch =
                orchestrator(Box::new(FixedPointPolicy::after_first())).with_delta(delta);
            let mut rng = SmallRng::seed_from_u64(43);
            orch.begin_worker(&mut rng);
            orch.record_snapshot(
                &snapshot(1, 1),
                &Full,
                SimDuration::from_millis(65),
                &mut rng,
            );
            orch.record_snapshot(
                &snapshot(2, 2),
                &Full,
                SimDuration::from_millis(65),
                &mut rng,
            );
            let plan = orch.begin_worker(&mut rng);
            (
                *orch.overheads(),
                plan.download.map(|dl| dl.nominal),
                plan.startup_overhead,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn overheads_decompose_by_operation() {
        let mut orch = orchestrator(Box::new(FixedPointPolicy::after_first()));
        let mut rng = SmallRng::seed_from_u64(6);
        orch.begin_worker(&mut rng);
        orch.complete_request(0, 10_000.0);
        orch.complete_request(1, 9_000.0);
        orch.record_snapshot(
            &snapshot(1, 1),
            &Full,
            SimDuration::from_millis(65),
            &mut rng,
        );
        let o = orch.overheads();
        assert_eq!(o.startups, 1);
        assert_eq!(o.requests, 2);
        assert_eq!(o.checkpoints, 1);
        assert!(o.per_startup_us() > 0.0);
        assert!(o.per_request_us() > 0.0);
        assert!(o.per_checkpoint_us() >= 65_000.0);
        assert_eq!(o.nominal_bytes_uploaded, 12 * 1024 * 1024);
    }

    #[test]
    fn transfer_model_affects_startup_plan_not_decision_overhead() {
        use pronghorn_store::TransferModel;
        let build = |transfer: TransferModel| {
            let mut orch =
                orchestrator(Box::new(FixedPointPolicy::after_first())).with_transfer(transfer);
            let mut rng = SmallRng::seed_from_u64(12);
            orch.begin_worker(&mut rng);
            orch.record_snapshot(
                &snapshot(1, 1),
                &Full,
                SimDuration::from_millis(65),
                &mut rng,
            );
            let plan = orch.begin_worker(&mut rng);
            (plan.startup_overhead, orch.overheads().per_startup_us())
        };
        let fast = build(TransferModel::from_gbps(10.0, 100.0));
        let slow = build(TransferModel::from_gbps(10.0, 0.1));
        // The worker plan (provisioning time) reflects the slower link ...
        assert!(slow.0 > fast.0);
        // ... but the Figure 7 decision overhead does not.
        assert!((slow.1 - fast.1).abs() < 1e-6);
    }

    #[test]
    fn request_centric_startup_costs_more_than_baseline() {
        let mut rc = orchestrator(Box::new(RequestCentricPolicy::new(
            PolicyConfig::paper_pypy(),
        )));
        let mut base = orchestrator(Box::new(FixedPointPolicy::after_first()));
        let mut rng = SmallRng::seed_from_u64(7);
        rc.begin_worker(&mut rng);
        base.begin_worker(&mut rng);
        let (a, b) = (
            rc.overheads().per_startup_us(),
            base.overheads().per_startup_us(),
        );
        assert!(a > b, "request-centric {a} <= baseline {b}");
        assert!(a / b < 2.6, "ratio {} exceeds Figure 7's 2.5x", a / b);
    }
}
