//! The [`Session`] and [`Deployment`] state every run provisions, serves,
//! checkpoints and retires workers through, and the closed-loop and
//! production wrappers the `benchmark/` package calls. The event loop
//! itself is [`crate::engine`]; the entry point is [`crate::run`].

use crate::config::RunConfig;
use crate::engine::{self, Arrivals, Routing, Topology};
use crate::plan::{run, ArrivalSpec, TopologySpec};
use crate::result::{ProvisionKind, RunResult};
use crate::stale::IoStaleModel;
use crate::worker::{DeltaTracking, Worker};
use pronghorn_checkpoint::{
    delta::dirty_nominal_bytes, Checkpointable, CodecStats, DeltaBase, SimCriuEngine, SnapshotId,
    SnapshotMeta,
};
use pronghorn_cluster::{ClusterSpec, LocalityStats};
use pronghorn_core::{baselines::make_policy, Download, Orchestrator, OverheadTotals};
use pronghorn_forecast::{PreRestorePlan, ProvisionStats, Provisioner};
use pronghorn_jit::{RequestWork, Runtime};
use pronghorn_metrics::Histogram;
use pronghorn_restore::{
    FaultCostModel, LazyImage, RestoreInfo, RestoreStrategy, DEFAULT_PAGE_SIZE,
};
use pronghorn_sim::{RngFactory, SimDuration, SimTime};
use pronghorn_store::{saturating_accumulate, ChainStats, StorageStats, StoreStats};
use pronghorn_workloads::{InputVariance, Workload};
use rand::rngs::SmallRng;
use rand::RngCore;
use std::collections::{BTreeSet, VecDeque};

/// Selection penalty (µs) the record-&-prefetch strategy charges pooled
/// snapshots that have no recorded working-set manifest yet: restoring one
/// means paying the recording restore (map + demand faults) instead of a
/// batched prefetch. Folded into snapshot weights harmonically, so it
/// biases — never vetoes — selection toward prefetch-ready snapshots.
const RECORD_PREFETCH_PENALTY_US: f64 = 10_000.0;

/// Simulated time of background IO-state freshening equivalent to one
/// served request's worth of staleness decay: a pre-warmed worker
/// re-establishes connections, leases and caches while it waits, so a
/// long enough lead erases the stale-IO penalty the first post-restore
/// requests would otherwise pay.
const PREWARM_REQUEST_US: u64 = 2_000_000;

/// Everything a request's input is drawn from: arrival `i`'s input is a
/// pure function of the session seed and `i`.
#[derive(Clone, Copy)]
pub(crate) struct RequestInputs<'w> {
    workload: &'w dyn Workload,
    factory: RngFactory,
    variance: InputVariance,
}

impl RequestInputs<'_> {
    /// The request arrival `index` carries, drawn from its own input
    /// stream (so where and when it is served never shifts it).
    pub(crate) fn generate(&self, index: u64) -> RequestWork {
        let mut input_rng = self.factory.stream_indexed("input", index);
        self.workload.generate(&mut input_rng, self.variance)
    }

    /// [`generate`](Self::generate), also counting the random words the
    /// input drew (a jump counts the words it skips): a host-independent
    /// measure of what generating it costs.
    pub(crate) fn generate_counted(&self, index: u64) -> (RequestWork, u64) {
        let mut input_rng = Counted {
            rng: self.factory.stream_indexed("input", index),
            draws: 0,
        };
        let work = self.workload.generate(&mut input_rng, self.variance);
        (work, input_rng.draws)
    }
}

/// A generator that counts the words drawn from it; the stream itself is
/// the inner generator's.
struct Counted<R> {
    rng: R,
    draws: u64,
}

impl<R: RngCore> RngCore for Counted<R> {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += dest.len().div_ceil(8) as u64;
        self.rng.fill_bytes(dest)
    }
    fn discard(&mut self, n: u64) {
        self.draws += n;
        self.rng.discard(n)
    }
}

/// Summary statistics of a [`run_production`] replay: everything the
/// kernel bench and capacity analyses need. They are derived from the
/// run's records, which are O(workers) (provisions, restores,
/// checkpoints), and from one log-bucketed latency histogram, so they
/// take O(1) memory in the invocation count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProductionStats {
    /// Requests served.
    pub invocations: u64,
    /// Mean client-visible latency (µs).
    pub mean_latency_us: f64,
    /// Median client-visible latency (µs, log-bucketed estimate).
    pub p50_latency_us: f64,
    /// 99th-percentile latency (µs, log-bucketed estimate).
    pub p99_latency_us: f64,
    /// Largest observed latency (µs, exact).
    pub max_latency_us: f64,
    /// Workers provisioned from a cold boot.
    pub cold_starts: u64,
    /// Workers provisioned from a snapshot restore.
    pub restores: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Total checkpoint downtime (ms).
    pub checkpoint_ms_total: f64,
    /// Total critical-path restore time (ms).
    pub restore_ms_total: f64,
    /// Total nominal snapshot bytes checkpointed (MB).
    pub snapshot_mb_total: f64,
    /// Total demand faults paid by lazy restores.
    pub restore_faults: u64,
    /// Total off-critical-path provisioning time (µs).
    pub provision_us_total: f64,
    /// Predictive pre-restore accounting (all zeros when provisioning is
    /// disabled).
    pub provisioning: ProvisionStats,
    /// Storage-hierarchy accounting (all zeros when tiered storage is
    /// disabled).
    pub storage: StorageStats,
    /// Timestamp of the last served arrival.
    pub end_time: SimTime,
    /// Largest number of events pending in the kernel at once: the timer
    /// wheel's events plus the streamed arrivals queued beside it, bounded
    /// by the 2^16-event lookahead window.
    pub peak_pending_events: usize,
}

impl ProductionStats {
    /// The stats of a replay: `result`'s records, the `latency` histogram
    /// (µs) with the exact max, and the engine's last arrival instant and
    /// peak pending-event count. The float totals add up in record order
    /// from `0.0` (an empty `Iterator::sum` of `f64` is `-0.0`).
    fn new(
        result: &RunResult,
        (latency, max_latency_us): &(Histogram, f64),
        (end_time, peak_pending_events): (SimTime, usize),
    ) -> Self {
        let total = |xs: &[f64]| xs.iter().fold(0.0, |sum, x| sum + x);
        ProductionStats {
            invocations: latency.count(),
            mean_latency_us: latency.mean(),
            p50_latency_us: latency.quantile(0.5),
            p99_latency_us: latency.quantile(0.99),
            max_latency_us: *max_latency_us,
            cold_starts: result.cold_starts() as u64,
            restores: result.restores() as u64,
            checkpoints: result.checkpoint_ms.len() as u64,
            checkpoint_ms_total: total(&result.checkpoint_ms),
            restore_ms_total: total(&result.restore_ms),
            snapshot_mb_total: total(&result.snapshot_mb),
            restore_faults: result.total_faults(),
            provision_us_total: result.provision_us,
            provisioning: result.provisioning,
            storage: result.storage,
            end_time,
            peak_pending_events,
        }
    }
}

/// One deployment's orchestration state: the orchestrator (policy,
/// snapshot pool, Database, object store), the predictive provisioner,
/// and the RNG stream names its workers draw from. Every topology drives
/// one, except [`TopologySpec::Classes`], which drives one per input class.
pub(crate) struct Deployment {
    /// Function name the orchestrator, snapshots and page maps carry.
    label: String,
    /// Stream names of the deployment's worker runtimes and cold boots.
    worker_stream: String,
    boot_stream: String,
    worker_seq: u64,
    pub(crate) orch: Orchestrator,
    /// Predictive-provisioning decision state; `None` when disabled, so
    /// the reactive path carries (and mutates) nothing.
    provisioner: Option<Provisioner>,
    /// Keep-alives of planned-but-not-yet-fired pre-restores, popped in
    /// kernel order (plans fire strictly after they are made, and the
    /// kernel is FIFO across monotone schedule times).
    pending_keepalives: VecDeque<SimDuration>,
    /// Image size of the most recently provisioned worker — the MPC
    /// arm's estimate of what a pre-restored worker would hold warm.
    last_image_bytes: u64,
}

impl Deployment {
    /// The one deployment of `workload` every topology but
    /// [`TopologySpec::Classes`] uses.
    pub(crate) fn shared(workload: &dyn Workload, cfg: &RunConfig) -> Self {
        Deployment::new(workload, cfg, workload.name().to_string(), "")
    }

    /// A deployment of `workload` labelled `label`, whose workers draw from
    /// the `worker{suffix}` and `boot{suffix}` streams. `cfg`'s policy
    /// configuration must be valid (see [`crate::run`]).
    pub(crate) fn new(
        workload: &dyn Workload,
        cfg: &RunConfig,
        label: String,
        suffix: &str,
    ) -> Self {
        let mut policy_config = cfg.resolve_policy_config(workload.kind());
        if cfg.restore == RestoreStrategy::RecordPrefetch {
            policy_config = policy_config.with_restore_penalty(RECORD_PREFETCH_PENALTY_US);
        }
        let policy = make_policy(cfg.policy, policy_config);
        let orch = Orchestrator::new(policy, label.as_str())
            .with_restore(cfg.restore)
            .with_storage(cfg.storage)
            .with_delta(cfg.delta);
        Deployment {
            label,
            worker_stream: format!("worker{suffix}"),
            boot_stream: format!("boot{suffix}"),
            worker_seq: 0,
            orch,
            provisioner: Provisioner::new(cfg.provision),
            pending_keepalives: VecDeque::new(),
            last_image_bytes: 0,
        }
    }

    /// Plans a pre-restore for a slot of this deployment that just went
    /// cold: `Some` is the kernel time at which to fire it, with the plan's
    /// keep-alive queued for [`Session::mark_pre_restored`] (or
    /// [`Self::cancel_pre_restore`]) to consume when it does. Reserves
    /// provisioning budget immediately so back-to-back evictions cannot
    /// over-issue.
    pub(crate) fn plan_pre_restore(&mut self, now: SimTime) -> Option<SimTime> {
        let provisioner = self.provisioner.as_mut()?;
        let PreRestorePlan { at, keepalive } = provisioner.plan(now, self.last_image_bytes)?;
        provisioner.note_issued();
        self.pending_keepalives.push_back(keepalive);
        Some(at)
    }

    /// Drops a planned pre-restore whose event fired into an occupied
    /// slot (a reactive provision beat it), releasing its budget.
    pub(crate) fn cancel_pre_restore(&mut self) {
        self.pending_keepalives.pop_front();
        if let Some(p) = self.provisioner.as_mut() {
            p.note_resolved();
        }
    }
}

/// What every deployment of a run shares: the workload, the seeded RNG
/// streams and checkpoint engine, and the measurement sink.
pub(crate) struct Session<'w> {
    workload: &'w dyn Workload,
    pub(crate) cfg: RunConfig,
    engine: SimCriuEngine,
    factory: RngFactory,
    policy_rng: SmallRng,
    engine_rng: SmallRng,
    stale: IoStaleModel,
    policy_w: u32,
    fault_costs: FaultCostModel,
    /// The result under construction. Its per-event Vecs are preallocated
    /// from the expected invocation count so they never grow by repeated
    /// push reallocation.
    pub(crate) out: RunResult,
    /// Where client-visible latencies go instead of `out.latencies_us`,
    /// when set: a log-bucketed histogram (µs) and the exact max.
    latency_sketch: Option<&'w mut (Histogram, f64)>,
    served_total: u32,
}

impl<'w> Session<'w> {
    /// A session recording every measurement into its [`RunResult`],
    /// preallocated for `expected` invocations. Given a `latency_sketch`,
    /// latencies go there instead, so memory stays O(workers) however many
    /// invocations stream through.
    pub(crate) fn new(
        workload: &'w dyn Workload,
        cfg: RunConfig,
        expected: usize,
        latency_sketch: Option<&'w mut (Histogram, f64)>,
    ) -> Self {
        let factory = RngFactory::new(cfg.seed);
        // A worker serves `eviction_rate` requests per lifetime, so
        // provisioning-shaped accumulators need roughly one entry per
        // lifetime (`+ 1` covers a trailing partial one; checkpoints are
        // bounded by lifetimes too — each worker snapshots at most once in
        // every policy in-tree).
        let lifetimes = expected / cfg.eviction_rate.max(1) as usize + 1;
        Session {
            workload,
            cfg,
            engine: SimCriuEngine::new(),
            policy_rng: factory.stream("policy"),
            engine_rng: factory.stream("engine"),
            factory,
            stale: IoStaleModel::default(),
            policy_w: cfg.resolve_policy_config(workload.kind()).w,
            fault_costs: FaultCostModel::default(),
            out: RunResult {
                workload: workload.name().to_string(),
                policy: cfg.policy,
                eviction_rate: cfg.eviction_rate,
                latencies_us: Vec::with_capacity(expected),
                overheads: OverheadTotals::default(),
                store_stats: StoreStats::default(),
                provisions: Vec::with_capacity(lifetimes),
                checkpoint_ms: Vec::with_capacity(lifetimes),
                restore_ms: Vec::with_capacity(lifetimes),
                snapshot_mb: Vec::with_capacity(lifetimes),
                snapshot_requests: Vec::with_capacity(lifetimes),
                provision_us: 0.0,
                codec: CodecStats::default(),
                restore_strategy: cfg.restore,
                restore_infos: Vec::with_capacity(lifetimes),
                chain: ChainStats::default(),
                provisioning: ProvisionStats::default(),
                storage: StorageStats::default(),
                nodes: Vec::new(),
                locality: LocalityStats::default(),
            },
            latency_sketch,
            served_total: 0,
        }
    }

    /// Records one client-visible latency.
    fn record_latency(&mut self, latency_us: f64) {
        match self.latency_sketch.as_deref_mut() {
            Some((histogram, max)) => {
                histogram.record(latency_us.max(1.0));
                *max = max.max(latency_us);
            }
            None => self.out.latencies_us.push(latency_us),
        }
    }

    /// What the session's requests are drawn from. It borrows only the
    /// workload, so inputs can be generated while the session serves.
    pub(crate) fn inputs(&self) -> RequestInputs<'w> {
        RequestInputs {
            workload: self.workload,
            factory: self.factory,
            variance: self.cfg.variance,
        }
    }

    /// Provisions a worker for `dep` per the orchestration policy —
    /// entirely off the request critical path (§5.3) — also handing back
    /// the download it restored from, the cluster's hook for locality
    /// accounting. `None` means a cold boot (including the corrupt-snapshot
    /// degradation path). A worker that does not `explore` never
    /// checkpoints (the fleet's amortization knob).
    pub(crate) fn provision(
        &mut self,
        dep: &mut Deployment,
        explore: bool,
        now: SimTime,
    ) -> (Worker, Option<Download>) {
        let plan = dep.orch.begin_worker(&mut self.policy_rng);
        let mut provision_us = plan.startup_overhead.as_micros() as f64;
        let wrng = self
            .factory
            .stream_indexed(&dep.worker_stream, dep.worker_seq);
        dep.worker_seq += 1;

        let mut download = plan.download;
        let restored = download
            .as_mut()
            .and_then(|dl| self.restore_worker(dep, dl));
        let (runtime, restore, image) = match restored {
            Some((runtime, info, image)) => {
                provision_us += info.restore_us;
                self.out.restore_ms.push(info.restore_us / 1_000.0);
                (runtime, Some(info), image)
            }
            // No snapshot, or a corrupt one: boot cold.
            None => {
                download = None;
                let mut boot_rng = self
                    .factory
                    .stream_indexed(&dep.boot_stream, dep.worker_seq);
                let (rt, cost) = Runtime::cold_start(
                    self.workload.runtime_profile(),
                    self.workload.method_profiles(),
                    &mut boot_rng,
                );
                provision_us += cost.as_micros() as f64;
                (rt, None, None)
            }
        };
        self.out.provision_us += provision_us;
        let resume = download
            .as_ref()
            .map_or(0, |dl| dl.snapshot.meta.request_number);
        self.out.provisions.push(match download {
            Some(_) => ProvisionKind::Restored(resume),
            None => ProvisionKind::Cold,
        });

        let checkpoint_at = plan.checkpoint_at.filter(|_| explore);
        let mut worker = Worker::new(runtime, wrng, resume, checkpoint_at, restore, now);
        worker.image = image;
        // The restored snapshot becomes the worker's prospective delta
        // parent, with an empty dirty-page set.
        worker.delta = download
            .as_ref()
            .filter(|_| self.cfg.delta.enabled())
            .map(|dl| DeltaTracking {
                parent: dl.snapshot.clone(),
                dirty_pages: BTreeSet::new(),
            });
        dep.last_image_bytes = worker.runtime.image_size_bytes();
        // An immediately-due plan (e.g. checkpoint-after-init's request 0)
        // snapshots before the first request is served.
        self.maybe_checkpoint(dep, &mut worker);
        (worker, download)
    }

    /// Materializes a runtime from `dl`'s snapshot under the configured
    /// restore strategy; `None` means the snapshot is corrupt and the
    /// caller degrades to a cold start. The eager arm is the pre-paging
    /// engine path verbatim — exactly one cost sample from the engine RNG
    /// stream — so eager runs stay bit-identical. The lazy arms take the
    /// download's page map and decode without consuming any RNG
    /// ([`SimCriuEngine::restore_mapped`]); they charge only the page-table
    /// mapping (plus, with the working set `dl` carries, one batched
    /// prefetch) up front, and the rest is paid via demand faults during
    /// [`Session::serve`].
    fn restore_worker(
        &mut self,
        dep: &mut Deployment,
        dl: &mut Download,
    ) -> Option<(Runtime, RestoreInfo, Option<LazyImage>)> {
        let strategy = self.cfg.restore;
        if strategy == RestoreStrategy::Eager {
            let (runtime, cost) = self
                .engine
                .restore::<Runtime, _>(&mut self.engine_rng, &dl.snapshot)
                .ok()?;
            // `dl.nominal` is what the store actually shipped: the full
            // image for a chain root, the root plus every delta's dirty
            // bytes for a composed restore. With delta off it equals
            // `snapshot.nominal_size` exactly.
            let info = RestoreInfo::eager(cost.as_micros() as f64, dl.nominal);
            return Some((runtime, info, None));
        }
        // A paged restore carries its page map; without one the snapshot
        // cannot be mapped, which degrades to a cold boot like corruption.
        let map = dl.page_map.take()?;
        let runtime = self.engine.restore_mapped::<Runtime>(&dl.snapshot).ok()?;
        let (function, id) = (dep.label.as_str(), dl.snapshot.id);
        let mut info = RestoreInfo {
            strategy,
            restore_us: self.fault_costs.map_base_us,
            ..RestoreInfo::default()
        };
        let Some(pages) = dl.working_set.take() else {
            // Lazy maps on fault; the first record-prefetch restore of a
            // snapshot records its working set, which serve() persists as
            // the manifest.
            let image = match strategy {
                RestoreStrategy::Lazy => LazyImage::new(id.0, map),
                _ => LazyImage::with_recording(function, id.0, map),
            };
            return Some((runtime, info, Some(image)));
        };
        // A prior restore recorded this snapshot's working set:
        // bulk-prefetch it in one batched transfer and fault only the cold
        // tail. The prefetch batch is the restore critical path.
        let fetch = dep.orch.prefetch_pages(id, &map, &pages, &self.fault_costs);
        let mut image = LazyImage::new(id.0, map);
        image.mark_prefetched(&pages);
        info.prefetched_pages = pages.len() as u32;
        info.bytes_transferred = fetch.bytes;
        info.restore_us = fetch.us;
        info.decompress_us = fetch.decompress_us;
        Some((runtime, info, Some(image)))
    }

    /// Takes the planned checkpoint if the worker has reached it. Runs
    /// after the response is returned, so the downtime stays invisible to
    /// the client (§5.3).
    fn maybe_checkpoint(&mut self, dep: &mut Deployment, worker: &mut Worker) {
        if !worker.checkpoint_due() {
            return;
        }
        // Provider-imposed cost bound (§5.3): once the configured number of
        // invocations has been served, the best snapshot stays in the pool
        // and no further checkpoints are taken.
        if let Some(stop) = self.cfg.stop_checkpointing_after {
            if self.served_total >= stop {
                worker.checkpoint_at = None;
                return;
            }
        }
        worker.checkpoint_at = None;
        let meta = SnapshotMeta {
            function: dep.label.clone(),
            request_number: worker.runtime.requests_executed() as u32,
            runtime: self.workload.kind().label().to_string(),
        };
        // Checkpoint form: the orchestrator decides between a delta against
        // the restore parent and a full root. Both engine arms draw
        // identical randomness, so the choice never shifts the RNG streams
        // of a seeded run.
        let base = worker
            .delta
            .as_ref()
            .filter(|t| dep.orch.checkpoints_as_delta(t.parent.id))
            .map(|t| DeltaBase {
                parent: &t.parent,
                dirty_nominal_bytes: dirty_nominal_bytes(
                    &t.dirty_pages,
                    t.parent_page_count(),
                    worker.runtime.image_size_bytes(),
                    DEFAULT_PAGE_SIZE,
                ),
            });
        let (snapshot, outcome, downtime) = self.engine.checkpoint(
            &mut self.out.codec,
            &mut self.engine_rng,
            &worker.runtime,
            meta,
            base.as_ref(),
        );
        self.out.checkpoint_ms.push(downtime.as_millis_f64());
        self.out.snapshot_mb.push(snapshot.nominal_size_mb());
        self.out
            .snapshot_requests
            .push(snapshot.meta.request_number);
        dep.orch
            .record_snapshot(&snapshot, &outcome, downtime, &mut self.policy_rng);
    }

    /// Serves `request` end to end on `worker`, returning its execution
    /// latency. The client additionally sees `queue_us` of queueing, which
    /// the policy never observes.
    pub(crate) fn serve(
        &mut self,
        dep: &mut Deployment,
        worker: &mut Worker,
        request: RequestWork,
        queue_us: f64,
        now: SimTime,
    ) -> f64 {
        // Every run serves exactly one request per arrival, so this is
        // the single point where the forecaster observes the arrival
        // process. A no-op (no state, no draws) when provisioning is off.
        if let Some(p) = dep.provisioner.as_mut() {
            p.observe(now);
        }
        // A pre-restored worker resolves at its first request: the lead
        // time it waited both cost keep-alive byte-seconds and banked
        // IO-state freshening (prewarm credit) against the stale penalty.
        if let Some(since) = worker.pre_warmed_since.take() {
            let waited = now.saturating_since(since);
            worker.prewarm_credit =
                (waited.as_micros() / PREWARM_REQUEST_US).min(u64::from(u32::MAX)) as u32;
            self.out.provisioning.pre_restores_used += 1;
            self.out.provisioning.keepalive_byte_s +=
                worker.runtime.image_size_bytes() as f64 * waited.as_secs_f64();
            if let Some(p) = dep.provisioner.as_mut() {
                p.note_resolved();
            }
        }
        let request_number = worker.next_request_number();
        let breakdown = worker.runtime.execute(&request, &mut worker.rng);
        let mut latency = breakdown.total_us();

        // One deterministic page-access trace per request, over the
        // restored snapshot's image pages. The trace is pure (no RNG), so
        // neither of its readers perturbs the seeded streams. The image's
        // page map counts at least one page; the parent's count differs
        // from it only for an empty image, all of whose pages a delta
        // counts as growth whatever the dirty set holds.
        let pages = match (&worker.image, &worker.delta) {
            (Some(image), _) => Some(image.map().page_count()),
            (None, Some(tracking)) => Some(tracking.parent_page_count()),
            (None, None) => None,
        };
        let trace = pages
            .map(|n| worker.runtime.page_access_trace(&request, n))
            .unwrap_or_default();

        // Delta lineage: fold the trace into the dirty set — what an
        // incremental engine's soft-dirty tracking would report.
        if let Some(tracking) = worker.delta.as_mut() {
            tracking.dirty_pages.extend(&trace);
        }

        // Lazily-mapped images pay for first-touched pages on the request
        // critical path: each fault is a demand fetch from the store.
        if let Some(image) = worker.image.as_mut() {
            let touches = image.first_touches(&trace);
            if !touches.is_empty() {
                let id = SnapshotId(image.snapshot_id());
                let fetch = dep
                    .orch
                    .fault_pages(id, image.map(), &touches, &self.fault_costs);
                latency += fetch.us + fetch.decompress_us;
                if let Some(info) = worker.restore.as_mut() {
                    info.faults += touches.len() as u32;
                    info.fault_us += fetch.us;
                    info.decompress_us += fetch.decompress_us;
                    saturating_accumulate(
                        "bytes_transferred",
                        &mut info.bytes_transferred,
                        fetch.bytes,
                    );
                }
            }
            // A recording restore persists its working set once the trace
            // grows (the orchestrator keeps it only while the snapshot is
            // pooled).
            if image.recording_dirty() {
                if let Some(manifest) = image.recording() {
                    dep.orch.persist_manifest(manifest);
                }
                image.clear_dirty();
            }
        }

        // Restored processes re-establish stale IO state lazily; how much
        // of it there is to re-establish is workload-specific. Staleness
        // decays with requests served, so only *freshly* restored workers
        // pay it. Prewarm credit ages the penalty down exactly as served
        // requests would; every reactive worker has credit zero.
        let nth = worker.served.saturating_add(worker.prewarm_credit);
        if worker.restored() && nth < self.stale.horizon {
            // `stale_age` is nonzero only for cross-node restores; at age
            // zero the aged path is bit-identical to `penalty_frac`.
            latency += request.io_us
                * self.workload.io_stale_sensitivity()
                * self.stale.penalty_frac_aged(
                    worker.resume_request,
                    self.policy_w,
                    nth,
                    worker.stale_age,
                );
        }

        // Adding a zero queue leaves the latency bit-identical.
        self.record_latency(latency + queue_us);
        self.served_total += 1;
        dep.orch
            .complete_request(request_number.min(u64::from(u32::MAX)) as u32, latency);
        worker.served += 1;
        worker.last_active = now;
        self.maybe_checkpoint(dep, worker);
        latency
    }

    /// Retires a worker at eviction (or end of run), harvesting its
    /// accumulated restore/fault statistics. A still-pre-warmed worker
    /// retires as a *wasted* pre-restore: it paid keep-alive without ever
    /// serving.
    pub(crate) fn retire(&mut self, dep: &mut Deployment, worker: Worker, now: SimTime) {
        if let Some(since) = worker.pre_warmed_since {
            let waited = now.saturating_since(since);
            self.out.provisioning.pre_restores_wasted += 1;
            self.out.provisioning.keepalive_byte_s +=
                worker.runtime.image_size_bytes() as f64 * waited.as_secs_f64();
            if let Some(p) = dep.provisioner.as_mut() {
                p.note_resolved();
            }
        }
        if let Some(info) = worker.restore {
            self.out.restore_infos.push(info);
        }
    }

    /// Marks a freshly provisioned worker pre-warmed at `now` (a
    /// *pre-restore*, consuming the oldest planned keep-alive) and
    /// hydrates its lazy image in the background: every absent page is
    /// pulled in one batched prefetch through the storage tier, so the
    /// predicted burst's first requests demand-fault nothing. All of it,
    /// decompression included, is charged off the critical path. The
    /// hydration bytes stay out of `bytes_transferred`
    /// — that counter means "shipped on the restore path" to the cluster's
    /// byte conservation — and out of the recording manifest, which must
    /// keep reflecting what requests actually touch.
    pub(crate) fn mark_pre_restored(
        &mut self,
        dep: &mut Deployment,
        worker: &mut Worker,
        now: SimTime,
    ) {
        let planned = &mut dep.pending_keepalives;
        // pronglint: allow(panic-reach): every pre-restore that fires was
        // planned by `plan_pre_restore`, which queued its keep-alive, and a
        // cancelled one pops its own.
        let keepalive = planned.pop_front().expect("queued when planned");
        worker.pre_warmed_since = Some(now);
        worker.pre_warm_expires = now + keepalive;
        self.out.provisioning.pre_restores_issued += 1;
        if let Some(image) = worker.image.as_mut() {
            let absent = image.absent_pages();
            if !absent.is_empty() {
                let id = SnapshotId(image.snapshot_id());
                let fetch = dep
                    .orch
                    .prefetch_pages(id, image.map(), &absent, &self.fault_costs);
                image.mark_prefetched(&absent);
                self.out.provision_us += fetch.us + fetch.decompress_us;
                if let Some(info) = worker.restore.as_mut() {
                    info.prefetched_pages =
                        info.prefetched_pages.saturating_add(absent.len() as u32);
                }
            }
        }
    }

    /// Clears the measurement accumulators while keeping all learned state
    /// (orchestrator knowledge, pooled snapshots, object-store contents) —
    /// used to measure a window of an already-deployed function.
    pub(crate) fn reset_measurements(&mut self) {
        let out = &mut self.out;
        out.latencies_us.clear();
        out.provisions.clear();
        out.checkpoint_ms.clear();
        out.restore_ms.clear();
        out.snapshot_mb.clear();
        out.snapshot_requests.clear();
        out.provision_us = 0.0;
        out.restore_infos.clear();
        out.provisioning = ProvisionStats::default();
        out.codec = CodecStats::default();
    }

    /// Collapses the run into its [`RunResult`], with every deployment's
    /// accounting (deployments are disjoint, so their orchestrator, store,
    /// chain and storage counters add up), every node's counters and the
    /// locality counters.
    pub(crate) fn finish(mut self, topo: &mut Topology) -> RunResult {
        for dep in &topo.deps {
            self.out.overheads.merge(dep.orch.overheads());
            self.out.store_stats.merge(&dep.orch.store_stats());
            self.out.chain.merge(&dep.orch.chain_stats());
            self.out.storage.merge(&dep.orch.storage_stats());
        }
        self.out.nodes = topo.nodes.iter().map(|n| n.stats).collect();
        self.out.locality = topo.teardown_locality();
        self.out
    }
}

/// Runs the §5.1 closed loop: [`run`] with [`ArrivalSpec::ClosedLoop`] on
/// [`TopologySpec::Single`], or on [`TopologySpec::Cluster`] when
/// `cfg.cluster` is not [`ClusterSpec::single_node`]. Kept for the
/// `benchmark/` package and removed in the next change to the benchmark.
///
/// # Panics
///
/// Panics where [`run`] returns a [`crate::ConfigError`]: an invalid
/// policy configuration or a cluster without nodes or slots.
///
/// # Examples
///
/// ```
/// use pronghorn_core::PolicyKind;
/// use pronghorn_platform::{run_closed_loop, RunConfig};
/// use pronghorn_workloads::by_name;
///
/// let workload = by_name("DynamicHTML").unwrap();
/// let cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, 42).with_invocations(50);
/// let result = run_closed_loop(&workload, &cfg);
/// assert_eq!(result.latencies_us.len(), 50);
/// assert!(result.median_us() > 0.0);
/// ```
pub fn run_closed_loop(workload: &dyn Workload, cfg: &RunConfig) -> RunResult {
    let topology = if cfg.cluster == ClusterSpec::single_node() {
        TopologySpec::Single
    } else {
        TopologySpec::Cluster
    };
    run(workload, cfg, ArrivalSpec::ClosedLoop, topology)
        .unwrap_or_else(|e| panic!("run_closed_loop: {e}"))
}

/// Replays a production-scale arrival stream (e.g.
/// [`pronghorn_traces::ArrivalStream`]) with idle-timeout eviction,
/// keeping memory O(workers): arrivals wait in a plain queue beside the
/// timer wheel, which holds only probes, pre-restores and expiries, with at
/// most 2^16 events pending across the two; the run records O(workers)
/// provisions, restores and checkpoints, and latencies go into one
/// log-bucketed histogram.
///
/// Arrivals must be non-decreasing (arrival streams are); an out-of-order
/// arrival is clamped to the kernel clock rather than rewinding time.
/// Kept for the `benchmark/` package and removed in the next change to the
/// benchmark.
///
/// # Panics
///
/// Panics where [`run`] with [`TopologySpec::Single`] returns a
/// [`crate::ConfigError`]: an invalid policy configuration, or a
/// `cfg.cluster` other than [`ClusterSpec::single_node`].
///
/// # Examples
///
/// ```
/// use pronghorn_core::PolicyKind;
/// use pronghorn_platform::{run_production, RunConfig};
/// use pronghorn_sim::RngFactory;
/// use pronghorn_traces::TraceSpec;
/// use pronghorn_workloads::by_name;
///
/// let workload = by_name("Hash").unwrap();
/// let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 42);
/// let spec = TraceSpec::production(0.001, 0.9); // 3.6 s of p90 traffic
/// let arrivals = spec.stream(RngFactory::new(cfg.seed).stream("production"));
/// let stats = run_production(&workload, &cfg, arrivals);
/// assert!(stats.invocations > 0);
/// // Every worker was provisioned exactly once, cold or from a snapshot.
/// assert!(stats.cold_starts + stats.restores >= 1);
/// assert!(stats.p99_latency_us >= stats.p50_latency_us);
/// ```
pub fn run_production<I>(workload: &dyn Workload, cfg: &RunConfig, arrivals: I) -> ProductionStats
where
    I: IntoIterator<Item = SimTime>,
{
    if let Err(e) = crate::plan::validate(workload, cfg, TopologySpec::Single) {
        panic!("run_production: {e}");
    }
    // 1% bucket growth keeps quantile error ≪ the paper's reporting
    // precision.
    let histogram = Histogram::new(1.0, 1e9, 1.01).expect("static bounds are valid");
    let mut latency = (histogram, 0.0);
    let mut session = Session::new(workload, *cfg, 0, Some(&mut latency));
    let dep = Deployment::shared(workload, cfg);
    let mut topo = Topology::new(vec![dep], 1, 1, Routing::Single);
    let iter = arrivals.into_iter();
    let end = engine::run(&mut session, &mut topo, Arrivals::Sorted { first: 0, iter });
    let result = session.finish(&mut topo);
    ProductionStats::new(&result, &latency, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_core::PolicyKind;
    use pronghorn_sim::SimDuration;
    use pronghorn_traces::{Trace, TraceSpec};
    use pronghorn_workloads::{by_name, InputVariance};

    fn cfg(policy: PolicyKind, rate: u32) -> RunConfig {
        RunConfig::paper(policy, rate, 42)
            .with_invocations(120)
            .with_variance(InputVariance::none())
    }

    /// The trace window alone, with no deployment history.
    fn run_trace(workload: &dyn Workload, c: &RunConfig, trace: &Trace) -> RunResult {
        let (c, plan) = (c.with_invocations(0), ArrivalSpec::Trace(trace));
        run(workload, &c, plan, TopologySpec::Single).unwrap()
    }

    #[test]
    fn cold_policy_never_checkpoints() {
        let bench = by_name("DFS").unwrap();
        let r = run_closed_loop(&bench, &cfg(PolicyKind::Cold, 1));
        assert_eq!(r.latencies_us.len(), 120);
        assert!(r.checkpoint_ms.is_empty());
        assert_eq!(r.cold_starts(), 120);
        assert_eq!(r.restores(), 0);
    }

    #[test]
    fn after_first_takes_exactly_one_checkpoint() {
        let bench = by_name("DFS").unwrap();
        let r = run_closed_loop(&bench, &cfg(PolicyKind::AfterFirst, 1));
        assert_eq!(r.checkpoint_ms.len(), 1);
        assert_eq!(r.cold_starts(), 1);
        assert_eq!(r.restores(), 119);
        // Every restore resumes at request 1.
        assert!(r
            .provisions
            .iter()
            .skip(1)
            .all(|p| *p == ProvisionKind::Restored(1)));
    }

    #[test]
    fn after_first_beats_cold_start_at_rate_one() {
        let bench = by_name("DFS").unwrap();
        let cold = run_closed_loop(&bench, &cfg(PolicyKind::Cold, 1));
        let after = run_closed_loop(&bench, &cfg(PolicyKind::AfterFirst, 1));
        // Cold pays lazy init on every request; after-1st skips it.
        assert!(
            after.median_us() < cold.median_us() * 0.8,
            "after-1st {} vs cold {}",
            after.median_us(),
            cold.median_us()
        );
    }

    #[test]
    fn request_centric_checkpoints_and_pools_snapshots() {
        let bench = by_name("DFS").unwrap();
        let r = run_closed_loop(&bench, &cfg(PolicyKind::RequestCentric, 1));
        assert!(
            r.checkpoint_ms.len() > 5,
            "{} checkpoints",
            r.checkpoint_ms.len()
        );
        assert!(r.restores() > 50);
        // Pool capacity (C = 12) bounds live blobs.
        assert!(r.store_stats.objects <= 12);
    }

    #[test]
    fn eviction_rate_controls_worker_count() {
        let bench = by_name("DFS").unwrap();
        let r1 = run_closed_loop(&bench, &cfg(PolicyKind::Cold, 1));
        let r4 = run_closed_loop(&bench, &cfg(PolicyKind::Cold, 4));
        let r20 = run_closed_loop(&bench, &cfg(PolicyKind::Cold, 20));
        assert_eq!(r1.provisions.len(), 120);
        assert_eq!(r4.provisions.len(), 30);
        assert_eq!(r20.provisions.len(), 6);
    }

    #[test]
    fn runs_are_reproducible_by_seed() {
        let bench = by_name("Hash").unwrap();
        let a = run_closed_loop(&bench, &cfg(PolicyKind::RequestCentric, 4));
        let b = run_closed_loop(&bench, &cfg(PolicyKind::RequestCentric, 4));
        assert_eq!(a.latencies_us, b.latencies_us);
        assert_eq!(a.provisions, b.provisions);
    }

    #[test]
    fn different_seeds_differ() {
        let bench = by_name("Hash").unwrap();
        let a = run_closed_loop(&bench, &cfg(PolicyKind::RequestCentric, 4));
        let mut other = cfg(PolicyKind::RequestCentric, 4);
        other.seed = 43;
        let b = run_closed_loop(&bench, &other);
        assert_ne!(a.latencies_us, b.latencies_us);
    }

    #[test]
    fn trace_run_serves_every_arrival() {
        let bench = by_name("MST").unwrap();
        let factory = RngFactory::new(5);
        let trace = TraceSpec::percentile(0.75).generate(&mut factory.stream("t"));
        let r = run_trace(&bench, &cfg(PolicyKind::AfterFirst, 4), &trace);
        assert_eq!(r.latencies_us.len(), trace.len());
    }

    #[test]
    fn trace_idle_timeout_evicts_workers() {
        use pronghorn_sim::SimTime;
        let bench = by_name("MST").unwrap();
        // Two bursts separated by more than the idle timeout.
        let arrivals = vec![
            SimTime::from_micros(0),
            SimTime::from_micros(1_000_000),
            SimTime::ZERO + SimDuration::from_secs(1_800),
        ];
        let trace = Trace::new(arrivals, SimDuration::from_secs(3_600));
        let r = run_trace(&bench, &cfg(PolicyKind::Cold, 4), &trace);
        // First burst shares a worker; the third arrival needs a new one.
        assert_eq!(r.provisions.len(), 2);
    }

    #[test]
    fn lazy_restore_faults_on_the_critical_path() {
        let bench = by_name("DFS").unwrap();
        let r = run_closed_loop(
            &bench,
            &cfg(PolicyKind::AfterFirst, 4).with_restore(RestoreStrategy::Lazy),
        );
        assert_eq!(r.restore_strategy, RestoreStrategy::Lazy);
        assert_eq!(r.restore_infos.len(), r.restores());
        assert!(r.total_faults() > 0, "lazy restores must demand-fault");
        assert_eq!(r.prefetched_pages(), 0);
        // Every fault moved bytes of the pooled snapshot.
        assert!(r.restore_bytes() > 0);
    }

    #[test]
    fn record_prefetch_records_once_then_prefetches() {
        let bench = by_name("DFS").unwrap();
        let r = run_closed_loop(
            &bench,
            &cfg(PolicyKind::AfterFirst, 4).with_restore(RestoreStrategy::RecordPrefetch),
        );
        assert!(r.prefetched_pages() > 0, "later restores must prefetch");
        // The recording restore faults its working set in; prefetched
        // restores fault only the cold tail, so faults stay well below
        // what the all-lazy run pays.
        let lazy = run_closed_loop(
            &bench,
            &cfg(PolicyKind::AfterFirst, 4).with_restore(RestoreStrategy::Lazy),
        );
        assert!(
            r.total_faults() < lazy.total_faults() / 2,
            "record-prefetch {} faults vs lazy {}",
            r.total_faults(),
            lazy.total_faults()
        );
    }

    #[test]
    fn record_prefetch_beats_lazy_and_eager_restore_latency() {
        let bench = by_name("DFS").unwrap();
        let eager = run_closed_loop(&bench, &cfg(PolicyKind::AfterFirst, 4));
        let lazy = run_closed_loop(
            &bench,
            &cfg(PolicyKind::AfterFirst, 4).with_restore(RestoreStrategy::Lazy),
        );
        let rp = run_closed_loop(
            &bench,
            &cfg(PolicyKind::AfterFirst, 4).with_restore(RestoreStrategy::RecordPrefetch),
        );
        assert!(
            rp.median_restore_us() < lazy.median_restore_us(),
            "record-prefetch {} vs lazy {}",
            rp.median_restore_us(),
            lazy.median_restore_us()
        );
        assert!(
            rp.median_restore_us() <= eager.median_restore_us(),
            "record-prefetch {} vs eager {}",
            rp.median_restore_us(),
            eager.median_restore_us()
        );
        // Compute-bound benchmark: the working set is a fraction of the
        // image, so record-prefetch also moves fewer bytes than eager's
        // full-payload download.
        assert!(
            rp.restore_bytes() < eager.restore_bytes(),
            "record-prefetch {} bytes vs eager {}",
            rp.restore_bytes(),
            eager.restore_bytes()
        );
    }

    #[test]
    fn lazy_strategies_are_reproducible_by_seed() {
        let bench = by_name("Hash").unwrap();
        for strategy in [RestoreStrategy::Lazy, RestoreStrategy::RecordPrefetch] {
            let c = cfg(PolicyKind::RequestCentric, 4).with_restore(strategy);
            let a = run_closed_loop(&bench, &c);
            let b = run_closed_loop(&bench, &c);
            assert_eq!(a.latencies_us, b.latencies_us, "{strategy}");
            assert_eq!(a.restore_infos, b.restore_infos, "{strategy}");
            assert_eq!(a.provisions, b.provisions, "{strategy}");
        }
    }

    #[test]
    fn eager_runs_never_touch_page_or_manifest_buckets() {
        let bench = by_name("DFS").unwrap();
        let r = run_closed_loop(&bench, &cfg(PolicyKind::RequestCentric, 1));
        assert_eq!(r.restore_strategy, RestoreStrategy::Eager);
        assert_eq!(r.total_faults(), 0);
        assert_eq!(r.prefetched_pages(), 0);
        assert_eq!(r.restore_infos.len(), r.restores());
        // Eager restore cost comes straight from the engine sample; the
        // info mirrors the restore_ms accumulator exactly.
        let from_infos: Vec<f64> = r
            .restore_infos
            .iter()
            .map(|i| i.restore_us / 1_000.0)
            .collect();
        let mut sorted_ms = r.restore_ms.clone();
        let mut sorted_infos = from_infos.clone();
        sorted_ms.sort_by(f64::total_cmp);
        sorted_infos.sort_by(f64::total_cmp);
        assert_eq!(sorted_ms, sorted_infos);
    }

    #[test]
    fn delta_checkpointing_never_shifts_latencies() {
        use pronghorn_checkpoint::DeltaPolicy;
        let bench = by_name("DFS").unwrap();
        let full = run_closed_loop(&bench, &cfg(PolicyKind::RequestCentric, 1));
        let delta = run_closed_loop(
            &bench,
            &cfg(PolicyKind::RequestCentric, 1).with_delta(DeltaPolicy::Enabled { max_depth: 4 }),
        );
        // Both engine arms draw identical randomness and checkpoint
        // downtime stays off the critical path, so client-visible behavior
        // is byte-identical with delta on or off.
        assert_eq!(full.latencies_us, delta.latencies_us);
        assert_eq!(full.provisions, delta.provisions);
        assert_eq!(full.snapshot_requests, delta.snapshot_requests);
        // The delta run actually cut deltas and consolidated chains...
        assert!(delta.chain.deltas > 0, "no deltas cut: {:?}", delta.chain);
        assert!(delta.chain.roots > 0);
        assert!(
            delta.chain.max_depth <= 4,
            "chain exceeded K: {:?}",
            delta.chain
        );
        assert_eq!(full.chain, pronghorn_store::ChainStats::default());
        // ...and paid for it: fewer nominal bytes uploaded, cheaper
        // checkpoint downtime (dirty working set vs the full image).
        assert!(
            delta.overheads.nominal_bytes_uploaded < full.overheads.nominal_bytes_uploaded,
            "delta uploaded {} vs full {}",
            delta.overheads.nominal_bytes_uploaded,
            full.overheads.nominal_bytes_uploaded
        );
        assert!(delta.checkpoint_ms.iter().sum::<f64>() < full.checkpoint_ms.iter().sum::<f64>());
    }

    #[test]
    fn delta_runs_are_reproducible_by_seed() {
        use pronghorn_checkpoint::DeltaPolicy;
        let bench = by_name("Hash").unwrap();
        let c =
            cfg(PolicyKind::RequestCentric, 4).with_delta(DeltaPolicy::Enabled { max_depth: 4 });
        let a = run_closed_loop(&bench, &c);
        let b = run_closed_loop(&bench, &c);
        assert_eq!(a.latencies_us, b.latencies_us);
        assert_eq!(a.provisions, b.provisions);
        assert_eq!(a.chain, b.chain);
        assert_eq!(
            a.overheads.nominal_bytes_uploaded,
            b.overheads.nominal_bytes_uploaded
        );
    }

    #[test]
    fn uploader_is_worse_under_request_centric() {
        // The paper's one regression: IO-bound Uploader at eviction rate 1.
        let bench = by_name("Uploader").unwrap();
        let mut c_after = RunConfig::paper(PolicyKind::AfterFirst, 1, 9).with_invocations(300);
        let mut c_rc = RunConfig::paper(PolicyKind::RequestCentric, 1, 9).with_invocations(300);
        c_after.variance = InputVariance::none();
        c_rc.variance = InputVariance::none();
        let after = run_closed_loop(&bench, &c_after);
        let rc = run_closed_loop(&bench, &c_rc);
        assert!(
            rc.median_us() > after.median_us(),
            "request-centric {} should exceed after-1st {}",
            rc.median_us(),
            after.median_us()
        );
    }

    #[test]
    fn predictive_provisioning_fixes_the_uploader_regression() {
        use pronghorn_forecast::{ForecasterKind, ProvisionPolicy};
        // Same protocol as `uploader_is_worse_under_request_centric`:
        // at eviction rate 1 every restore pays the stale-IO penalty on
        // its single request. A predicted pre-restore lands ~60 s before
        // the next arrival, and that lead time freshens the IO state
        // (prewarm credit), erasing the penalty.
        let bench = by_name("Uploader").unwrap();
        let mut reactive = RunConfig::paper(PolicyKind::RequestCentric, 1, 9).with_invocations(300);
        reactive.variance = InputVariance::none();
        let predictive = reactive.with_provision(ProvisionPolicy::predictive(ForecasterKind::Ewma));
        let r = run_closed_loop(&bench, &reactive);
        let p = run_closed_loop(&bench, &predictive);
        assert!(
            p.median_us() < r.median_us(),
            "predictive {} should beat reactive {}",
            p.median_us(),
            r.median_us()
        );
        assert!(p.provisioning.pre_restores_issued > 0);
        assert!(p.provisioning.pre_restores_used > 0);
        assert!(p.provisioning.keepalive_byte_s > 0.0);
        // Reactive runs account nothing.
        assert_eq!(r.provisioning.pre_restores_issued, 0);
        assert_eq!(r.provisioning.keepalive_byte_s, 0.0);
    }

    #[test]
    fn pre_restores_resolve_exactly_once() {
        use pronghorn_forecast::{ForecasterKind, ProvisionPolicy};
        // Conservation: every issued pre-restore is eventually used or
        // wasted, never both, never dropped: in the closed loop, and under
        // every forecaster in a production replay sparse enough (an arrival
        // every 10 s on average, in bursts) that its slot goes cold between
        // bursts.
        let bench = by_name("Uploader").unwrap();
        let provisioned = |kind| {
            cfg(PolicyKind::RequestCentric, 1)
                .with_idle_timeout(SimDuration::from_secs(30))
                .with_provision(ProvisionPolicy::predictive(kind))
        };
        let closed = run_closed_loop(&bench, &provisioned(ForecasterKind::SlidingWindow));
        let base = TraceSpec::production(1.0, 0.9);
        let spec = base
            .with_rate_scale(1.0 / 10.0 / base.rate_per_sec())
            .with_burst(0.25, SimDuration::from_secs(600));
        let production = ForecasterKind::ALL.map(|kind| {
            let arrivals = spec.stream(RngFactory::new(3).stream("t"));
            run_production(&bench, &provisioned(kind), arrivals).provisioning
        });
        for s in std::iter::once(closed.provisioning).chain(production) {
            assert!(s.pre_restores_issued > 0, "{s:?}");
            assert!(s.pre_restores_used > 0, "{s:?}");
            assert_eq!(
                s.pre_restores_issued,
                s.pre_restores_used + s.pre_restores_wasted,
                "{s:?}"
            );
        }
    }

    #[test]
    fn production_aggregates_match_the_vec_accumulating_trace_runner() {
        // The same arrivals through a trace run (every latency kept) and
        // run_production (a latency histogram) must agree exactly on
        // counts and means, and within bucket resolution on quantiles.
        let bench = by_name("Hash").unwrap();
        let c = cfg(PolicyKind::RequestCentric, 4);
        let factory = RngFactory::new(11);
        let trace = TraceSpec::percentile(0.9).generate(&mut factory.stream("t"));
        let vec_run = run_trace(&bench, &c, &trace);
        let stream_run = run_production(&bench, &c, trace.arrivals().iter().copied());
        assert_eq!(stream_run.invocations, vec_run.latencies_us.len() as u64);
        assert_eq!(stream_run.cold_starts, vec_run.cold_starts() as u64);
        assert_eq!(stream_run.restores, vec_run.restores() as u64);
        assert_eq!(stream_run.checkpoints, vec_run.checkpoint_ms.len() as u64);
        let vec_mean = vec_run.latencies_us.iter().sum::<f64>() / vec_run.latencies_us.len() as f64;
        assert!((stream_run.mean_latency_us - vec_mean).abs() <= vec_mean * 1e-9);
        let vec_median = vec_run.median_us();
        assert!(
            (stream_run.p50_latency_us - vec_median).abs() <= vec_median * 0.02,
            "p50 {} vs exact median {}",
            stream_run.p50_latency_us,
            vec_median
        );
        assert!((stream_run.provision_us_total - vec_run.provision_us).abs() < 1e-6);
    }
}
