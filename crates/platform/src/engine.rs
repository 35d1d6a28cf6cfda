//! The one deployment engine: the single event loop every run drives.
//!
//! The paper's closed loop (§5.1), trace replay (Figure 6), fleet
//! amortization (§5.3), input-aware partitioning (§6) and cluster mode run
//! one orchestration protocol: orchestrators, snapshot pools and worker
//! slots. They differ only in how many slots there are and how requests
//! reach them. [`run`] is that protocol, generic over three inputs:
//!
//! - an **arrival source** ([`Arrivals`]): a self-scheduling closed loop
//!   that also evicts workers by rate, or sorted arrival instants streamed
//!   through a bounded lookahead window; both evict workers on idle. A
//!   closed loop's arrivals are timer-wheel events; a sorted source's wait
//!   in the [`MergedQueue`]'s plain queue beside the wheel, which then
//!   holds only the engine's own events (probes, pre-restores, expiries);
//! - a **topology** ([`Topology`]): deployments × nodes × worker slots,
//!   plus the [`Routing`] rule that places each arrival;
//! - the [`Session`]'s latency sink: every latency in the run's
//!   [`crate::RunResult`], or one log-bucketed histogram and the exact max
//!   (a production replay); every other measurement goes into the
//!   `RunResult` either way.
//!
//! Kernel events are typed ([`Event`]). With predictive provisioning
//! disabled only arrivals are ever scheduled, so the reactive event stream
//! is exactly the one the reactive runs have always produced. Streamed
//! arrivals pop in the same `(at, seq)` order as if each had been
//! scheduled into the wheel. Request inputs come from one [`Pipeline`]
//! per run: helper threads on the other cores generate them ahead while
//! the event loop runs, and the loop generates any input it needs that
//! nobody has claimed. Helpers start only if the first input costs enough
//! to hand over. An input depends only on its arrival number, so no
//! result depends on the core count.

use crate::result::NodeBreakdown;
use crate::runner::{Deployment, RequestInputs, Session};
use crate::worker::Worker;
use pronghorn_cluster::{
    BlobDirectory, ClusterSpec, HashRing, LocalityStats, PlacementPolicy, RoutingPolicy,
};
use pronghorn_core::Download;
use pronghorn_jit::RequestWork;
use pronghorn_sim::{MergedQueue, SimDuration, SimTime};
use pronghorn_store::saturating_accumulate;
use pronghorn_workloads::InputVariance;
use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

/// How many events a sorted source keeps pending at once: the wheel's plus
/// the arrivals queued beside it, which is what `peak_pending_events`
/// counts. A sorted source streams its next arrival in while fewer are
/// pending. Arrivals stream in sorted, so a bounded window is lossless; it
/// keeps kernel memory O(lookahead) instead of O(invocations) over an
/// hours-long trace. The window is part of the behaviour: an arrival's
/// place among same-instant events depends on when it streams in.
const LOOKAHEAD: usize = 1 << 16;

/// A kernel event. It stays at 16 bytes (pinned by a test), so the timer
/// wheel's arena node stays 40 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Request `i` reaches the gateway.
    Arrival(u64),
    /// A planned pre-restore fires into slot `slot` of node `node`.
    PreRestore { node: u32, slot: u32 },
    /// Some pre-warmed worker's keep-alive may have run out.
    PreWarmExpiry,
    /// Idle probe, so a slot can go cold — and be predictively re-warmed —
    /// between arrivals, not only when the next arrival looks.
    IdleCheck,
}

/// Where arrivals come from. Under every source a worker retires after
/// `cfg.idle_timeout` without a request.
pub(crate) enum Arrivals<I> {
    /// Arrival `k` of `total` fires at `(k + 1) × gap`, scheduled by its
    /// predecessor. Workers also retire after `cfg.eviction_rate` requests.
    ClosedLoop { total: u64, gap: SimDuration },
    /// Non-decreasing arrival instants, indexed from `first` (an
    /// out-of-order instant is clamped to the kernel clock).
    Sorted { first: u64, iter: I },
}

impl Arrivals<std::iter::Empty<SimTime>> {
    /// A closed loop of `total` requests `gap` apart.
    pub(crate) fn closed_loop(total: u32, gap: SimDuration) -> Self {
        Arrivals::ClosedLoop {
            total: u64::from(total),
            gap,
        }
    }
}

/// Classifies `factor` into one of `classes` log-spaced buckets over
/// `[0.08, 12.0]` (the variance model's clamp range).
fn classify_factor(factor: f64, classes: usize) -> usize {
    let (lo, hi) = (0.08f64.ln(), 12.0f64.ln());
    let t = ((factor.max(1e-9).ln() - lo) / (hi - lo)).clamp(0.0, 1.0);
    ((t * classes as f64) as usize).min(classes.saturating_sub(1))
}

/// Geometric centre of class `k` of `classes`.
fn class_centre(k: usize, classes: usize) -> f64 {
    let (lo, hi) = (0.08f64.ln(), 12.0f64.ln());
    let width = (hi - lo) / classes as f64;
    (lo + width * (k as f64 + 0.5)).exp()
}

/// How an arrival picks its node and slot.
pub(crate) enum Routing {
    /// One node with one slot.
    Single,
    /// One node; arrival `i` goes to slot `i mod slots`, and only the first
    /// `explorers` slots take checkpoints (§5.3's amortization).
    RoundRobin { explorers: usize },
    /// One single-slot node per deployment: a request goes to the
    /// deployment of its input-size class, with its novelty re-based to
    /// the class centre (§6).
    ByClass,
    /// The cluster gateway: the ring owner first, load-aware spillover in
    /// ring order, queueing on a busy slot, per-node blob residency.
    Ring {
        spec: ClusterSpec,
        /// The ring owner, then the deterministic spillover successors.
        probe: Vec<u32>,
        dir: BlobDirectory,
    },
}

/// One node's worker slots.
pub(crate) struct Node {
    /// Index of the deployment the node serves.
    dep: usize,
    slots: Vec<Slot>,
    pub(crate) stats: NodeBreakdown,
}

#[derive(Default)]
struct Slot {
    worker: Option<Worker>,
    /// When the slot's current (or last) request finishes on the virtual
    /// clock; only [`Routing::Ring`] queues on it.
    busy_until: SimTime,
}

impl Node {
    /// Whether some slot can start serving at `now` without queueing.
    fn has_free_slot(&self, now: SimTime) -> bool {
        self.slots.iter().any(|s| s.busy_until <= now)
    }

    /// The slot an arrival at `now` is dispatched to: the first free slot
    /// (lowest index — warm workers accumulate at low indices, so this
    /// prefers reuse over a fresh boot), else the slot that frees up
    /// earliest (ties to the lowest index), where the request queues.
    fn pick_slot(&self, now: SimTime) -> usize {
        let busy_until = |i: &usize| self.slots[*i].busy_until;
        let earliest = || (0..self.slots.len()).min_by_key(busy_until).unwrap_or(0);
        (0..self.slots.len())
            .find(|i| busy_until(i) <= now)
            .unwrap_or_else(earliest)
    }
}

/// Deployments × nodes × worker slots, plus the routing rule.
pub(crate) struct Topology {
    pub(crate) deps: Vec<Deployment>,
    pub(crate) nodes: Vec<Node>,
    routing: Routing,
}

impl Topology {
    /// `nodes` nodes of `slots` slots each for every deployment in `deps`.
    pub(crate) fn new(deps: Vec<Deployment>, nodes: u32, slots: u32, routing: Routing) -> Self {
        let per_dep = nodes as usize;
        let nodes = (0..deps.len() * per_dep)
            .map(|n| Node {
                dep: n / per_dep,
                slots: (0..slots).map(|_| Slot::default()).collect(),
                stats: NodeBreakdown {
                    node: n as u32,
                    ..NodeBreakdown::default()
                },
            })
            .collect();
        Topology {
            deps,
            nodes,
            routing,
        }
    }

    /// The cluster `spec` serving `function` behind a consistent-hash
    /// gateway. One function per run, so the probe order is fixed.
    pub(crate) fn cluster(dep: Deployment, spec: ClusterSpec, function: &str) -> Self {
        let probe = HashRing::new(spec.nodes).successors(HashRing::key_of(function));
        let dir = BlobDirectory::new(spec.nodes);
        let routing = Routing::Ring { spec, probe, dir };
        Topology::new(vec![dep], spec.nodes, spec.capacity, routing)
    }

    /// The locality counters, after releasing every residency reference
    /// (conservation: they must all drain). Outside a cluster every
    /// restore is a local hit.
    pub(crate) fn teardown_locality(&mut self) -> LocalityStats {
        let Routing::Ring { dir, .. } = &mut self.routing else {
            let local_hits = self.nodes.iter().map(|n| n.stats.local_hits).sum();
            return LocalityStats {
                local_hits,
                ..LocalityStats::default()
            };
        };
        let locality = *dir.stats();
        dir.teardown();
        debug_assert_eq!(dir.total_refs(), 0, "residency refs must drain");
        locality
    }

    /// Zeroes the per-node, locality and orchestrator counters,
    /// keeping every learned state (pool, chains, cache contents, θ and
    /// blob residency), so a measured window reports only its own
    /// requests.
    pub(crate) fn reset_measurements(&mut self) {
        for node in &mut self.nodes {
            node.stats = NodeBreakdown {
                node: node.stats.node,
                ..NodeBreakdown::default()
            };
        }
        for dep in &mut self.deps {
            dep.orch.reset_measurements();
        }
        if let Routing::Ring { dir, .. } = &mut self.routing {
            dir.reset_stats();
        }
    }

    /// Places arrival `index`: its node and slot, and the request as that
    /// node's deployment sees it.
    fn route(&self, request: RequestWork, index: u64, now: SimTime) -> (RequestWork, usize, usize) {
        match &self.routing {
            Routing::Single => (request, 0, 0),
            Routing::RoundRobin { .. } => {
                let slot = index % self.nodes[0].slots.len() as u64;
                (request, 0, slot as usize)
            }
            Routing::ByClass => {
                let classes = self.deps.len();
                let class = classify_factor(request.size_factor, classes);
                // Speculation inside a class is tuned to the class centre,
                // so novelty is measured against it.
                let centre = class_centre(class, classes);
                let novelty = InputVariance::novelty_of(request.size_factor / centre);
                (request.novelty(novelty), class, 0)
            }
            Routing::Ring { spec, probe, .. } => {
                let target = match spec.routing {
                    RoutingPolicy::Hash => probe[0],
                    RoutingPolicy::LoadAware => probe
                        .iter()
                        .copied()
                        .find(|&n| self.nodes[n as usize].has_free_slot(now))
                        .unwrap_or(probe[0]),
                } as usize;
                (request, target, self.nodes[target].pick_slot(now))
            }
        }
    }

    /// Provisions a worker into slot `s` of node `n`, also handing back the
    /// download it restored from. Under ring routing a restore whose blob
    /// is not resident on the node also pays the cross-node fetch, and the
    /// snapshot's age there; any other topology has one node per
    /// deployment, so its restores are local hits.
    fn provision(
        &mut self,
        session: &mut Session<'_>,
        n: usize,
        s: usize,
        now: SimTime,
    ) -> (Worker, Option<Download>) {
        let (deps, nodes, routing) = (&mut self.deps, &mut self.nodes, &mut self.routing);
        let node = &mut nodes[n];
        let dep = &mut deps[node.dep];
        let explore = match routing {
            Routing::RoundRobin { explorers } => s < *explorers,
            _ => true,
        };
        let (mut worker, download) = session.provision(dep, explore, now);
        let ring = match routing {
            Routing::Ring { spec, dir, .. } => {
                // An immediately-due plan checkpoints inside provisioning;
                // those blobs become resident here.
                drain_pool_events(dep, dir, n as u32, spec, now);
                Some((spec, dir))
            }
            _ => None,
        };
        let Some(dl) = &download else {
            node.stats.cold_starts += 1;
            return (worker, download);
        };
        node.stats.restores += 1;
        let Some((spec, dir)) = ring else {
            node.stats.local_hits += 1;
            return (worker, download);
        };
        // Price the would-be miss up front (pure in the inputs, so
        // computing it eagerly is value-identical). `bytes` stays nominal
        // whatever the price, preserving the conservation law under
        // compression.
        let (id, nominal, seed) = (dl.snapshot.id, dl.nominal, dl.snapshot.payload_hash());
        let transfer = dep
            .orch
            .price_remote_fetch(nominal, dl.chain_len, seed, &spec.remote);
        let access = dir.access(id.0, n as u32, nominal, now, transfer);
        if access.hit {
            node.stats.local_hits += 1;
            return (worker, download);
        }
        node.stats.remote_misses += 1;
        // The fetch rides the provisioning path (off the request critical
        // path, like the store download it extends).
        session.out.provision_us += access.transfer.as_micros() as f64;
        if let Some(info) = worker.restore.as_mut() {
            saturating_accumulate(
                "bytes_transferred",
                &mut info.bytes_transferred,
                access.bytes,
            );
        }
        worker.stale_age = access.age;
        // The fetched image lands on this node's SSD cache, if any.
        dep.orch.admit_fetched(id, nominal);
        (worker, download)
    }

    /// Serves `request` on the worker in slot `s` of node `n`, in place.
    /// Under ring routing a request that finds its slot still serving
    /// waits for it: the wait is client-visible but invisible to the
    /// policy, whose streams see exactly the single-node sequence.
    fn serve(
        &mut self,
        session: &mut Session<'_>,
        (n, s): (usize, usize),
        request: RequestWork,
        now: SimTime,
    ) {
        let (deps, nodes, routing) = (&mut self.deps, &mut self.nodes, &mut self.routing);
        let node = &mut nodes[n];
        let dep = &mut deps[node.dep];
        let occupied = node.slots.iter().filter(|x| x.worker.is_some()).count() as u32;
        let slot = &mut node.slots[s];
        let Some(w) = slot.worker.as_mut() else {
            return;
        };
        node.stats.peak_workers = node.stats.peak_workers.max(occupied);
        node.stats.served += 1;
        let Routing::Ring { spec, probe, dir } = routing else {
            session.serve(dep, w, request, 0.0, now);
            return;
        };
        let wait_us = slot.busy_until.saturating_since(now).as_micros() as f64;
        let latency = session.serve(dep, w, request, wait_us, now);
        drain_pool_events(dep, dir, n as u32, spec, now);
        node.stats.queue_delay_us += wait_us;
        slot.busy_until = now.max(slot.busy_until) + SimDuration::from_micros_f64(latency);
        if n as u32 != probe[0] {
            node.stats.spillovers += 1;
        }
    }

    /// Retires `w` from slot `s` of node `n` and, when the deployment's
    /// forecaster wants the slot warm again, schedules its pre-restore.
    fn evict(
        &mut self,
        session: &mut Session<'_>,
        kernel: &mut MergedQueue<Event>,
        (n, s): (usize, usize),
        w: Worker,
        now: SimTime,
    ) {
        let dep = &mut self.deps[self.nodes[n].dep];
        session.retire(dep, w, now);
        if let Some(at) = dep.plan_pre_restore(now) {
            let (node, slot) = (n as u32, s as u32);
            kernel.schedule(at, Event::PreRestore { node, slot });
        }
    }
}

/// Syncs freshly recorded / evicted pool blobs into the residency
/// directory, attributing new blobs to the node that checkpointed them.
fn drain_pool_events(
    dep: &mut Deployment,
    dir: &mut BlobDirectory,
    node: u32,
    spec: &ClusterSpec,
    now: SimTime,
) {
    let (recorded, evicted) = dep.orch.drain_pool_events();
    for (id, bytes) in recorded {
        dir.record(id.0, node, now);
        if spec.placement == PlacementPolicy::Replicate {
            dir.replicate(id.0, bytes);
        }
    }
    for id in evicted {
        dir.evict(id.0);
    }
}

/// How far past the oldest input not yet taken the helpers may generate.
/// It bounds the memory the generated inputs hold.
const WINDOW: u64 = 256;

/// An input that draws fewer random words than this costs less to generate
/// than to hand across cores, so a run whose first input draws fewer
/// generates every input on demand. Uploader's inputs draw 4 words and take
/// ~0.1 µs, and on a 2-vCPU VM `production-replay` ran 8–10% slower with a
/// helper than without one. Every other benchmark but DynamicHTML (~60
/// words) and HTMLRendering (~180) draws over 1,000 words per input and
/// takes a microsecond or more to generate it.
const HANDOVER_DRAWS: u64 = 128;

/// A run's request-input pipeline. Arrival `i`'s input depends only on the
/// session seed and `i`, so helper threads generate inputs ahead while the
/// event loop runs, and no result depends on which thread generated which
/// input or on the core count.
struct Pipeline<'w> {
    inputs: RequestInputs<'w>,
    claims: Mutex<Claims>,
    /// Idle helpers wait here for a raised limit or the end of the run.
    work: Condvar,
    /// The engine waits here for an input a helper is generating.
    published: Condvar,
}

/// What the engine and the helpers share, under the pipeline's lock.
#[derive(Default)]
struct Claims {
    /// The first arrival number nobody has claimed.
    next: u64,
    /// Helpers claim only below this: the first arrival not yet known to
    /// exist, or [`WINDOW`] past the oldest input not yet taken.
    limit: u64,
    /// Generated inputs not yet moved to the engine, by arrival number.
    done: Vec<(u64, RequestWork)>,
    /// Helpers waiting on `work`.
    idle: usize,
    /// Whether the engine waits on `published`.
    waiting: bool,
    /// Set when the run ends or a helper panics.
    stop: bool,
    /// A helper's panic payload, for the engine to resume.
    panic: Option<Box<dyn Any + Send>>,
}

impl Pipeline<'_> {
    fn lock(&self) -> MutexGuard<'_, Claims> {
        // Nothing panics while holding the lock, so the claims stay
        // consistent even if it is poisoned.
        self.claims.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's loop until the run ends: claim the first unclaimed
    /// arrival below the limit, generate its input, publish it. A panic in
    /// `generate` stops the helpers and is handed to the engine.
    fn help(&self) {
        let mut claims = self.lock();
        while !claims.stop {
            if claims.next >= claims.limit {
                claims.idle += 1;
                claims = self
                    .work
                    .wait(claims)
                    .unwrap_or_else(PoisonError::into_inner);
                claims.idle -= 1;
                continue;
            }
            let i = claims.next;
            claims.next += 1;
            drop(claims);
            let work = std::panic::catch_unwind(AssertUnwindSafe(|| self.inputs.generate(i)));
            claims = self.lock();
            self.publish(&mut claims, i, work);
        }
    }

    /// Hands arrival `i`'s input to the engine, or the panic generating it
    /// raised, which also stops the helpers.
    fn publish(&self, claims: &mut Claims, i: u64, work: std::thread::Result<RequestWork>) {
        match work {
            Ok(work) => claims.done.push((i, work)),
            Err(payload) => {
                claims.panic.get_or_insert(payload);
                claims.stop = true;
                self.work.notify_all();
            }
        }
        if claims.waiting {
            self.published.notify_one();
        }
    }
}

/// Who generates a run's inputs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The first input the engine generates decides, by its draws.
    Undecided,
    /// The helpers, started when this was decided, generate ahead and the
    /// engine fills in.
    Helped,
    /// The engine generates each input when its arrival fires.
    OnDemand,
}

/// One arrival's place in the engine's reorder buffer.
enum Input {
    /// Claimed, but not generated or not yet moved to the engine.
    Pending,
    Ready(RequestWork),
    Taken,
}

impl Input {
    fn take(&mut self) -> Option<RequestWork> {
        match std::mem::replace(self, Input::Taken) {
            Input::Ready(work) => Some(work),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// The engine's end of a [`Pipeline`]: a reorder buffer of inputs by
/// arrival number, and the scope its helpers run in once the first input
/// shows they are worth starting. Dropping it ends the run for the helpers.
struct Feed<'s, 'e, 'w> {
    pipe: &'s Pipeline<'w>,
    scope: &'s Scope<'s, 'e>,
    /// Helper threads to start if the first input is worth handing over.
    helpers: usize,
    /// Helper threads started: none until the first input decides for
    /// them.
    started: usize,
    mode: Mode,
    /// The arrival number of `buf[0]`, the oldest input not yet taken.
    first: u64,
    buf: VecDeque<Input>,
    /// `first` when the helpers' limit was last raised.
    raised: u64,
}

impl Feed<'_, '_, '_> {
    /// Arrival `i`'s input; `known` is the first arrival not yet known to
    /// exist. An input nobody has claimed is generated here. One a helper
    /// is generating is waited for only when no unclaimed input is left
    /// below the limit; until then the engine generates those. Each arrival
    /// is taken once, so each input is generated exactly once, and never
    /// for an arrival at or past `known`. The first input generated here
    /// decides whether the helpers get any.
    fn take(&mut self, i: u64, known: u64) -> RequestWork {
        debug_assert!(i >= self.first, "arrival {i} taken twice");
        let pipe = self.pipe;
        loop {
            if self.mode == Mode::OnDemand {
                // The input that decided the mode may still be buffered.
                return self
                    .take_ready(i)
                    .unwrap_or_else(|| pipe.inputs.generate(i));
            }
            if let Some(work) = self.take_ready(i) {
                if self.first >= self.raised + WINDOW / 2 {
                    self.exchange(&mut pipe.lock(), known);
                }
                return work;
            }
            let mut claims = pipe.lock();
            let claimed = loop {
                self.exchange(&mut claims, known);
                if let Some(payload) = claims.panic.take() {
                    drop(claims);
                    std::panic::resume_unwind(payload);
                }
                if self.ready(i) {
                    break None;
                }
                if claims.next <= i || claims.next < claims.limit {
                    claims.next += 1;
                    break Some(claims.next - 1);
                }
                claims.waiting = true;
                claims = pipe
                    .published
                    .wait(claims)
                    .unwrap_or_else(PoisonError::into_inner);
                claims.waiting = false;
            };
            drop(claims);
            let Some(n) = claimed else { continue };
            let work = if self.mode == Mode::Undecided {
                let (work, draws) = pipe.inputs.generate_counted(n);
                self.mode = if draws >= HANDOVER_DRAWS {
                    self.start_helpers();
                    Mode::Helped
                } else {
                    Mode::OnDemand
                };
                work
            } else {
                pipe.inputs.generate(n)
            };
            self.place(n, Input::Ready(work));
        }
    }

    /// Starts the helpers, which wait for the limit to rise.
    fn start_helpers(&mut self) {
        let pipe = self.pipe;
        for _ in 0..self.helpers {
            self.scope.spawn(move || pipe.help());
        }
        self.started = self.helpers;
    }

    fn ready(&self, i: u64) -> bool {
        let k = (i - self.first) as usize;
        matches!(self.buf.get(k), Some(Input::Ready(_)))
    }

    /// Takes arrival `i`'s input if it is ready, then drops every taken
    /// input from the front of the buffer.
    fn take_ready(&mut self, i: u64) -> Option<RequestWork> {
        let work = self.buf.get_mut((i - self.first) as usize)?.take()?;
        while let Some(Input::Taken) = self.buf.front() {
            self.buf.pop_front();
            self.first += 1;
        }
        Some(work)
    }

    fn place(&mut self, n: u64, input: Input) {
        let k = (n - self.first) as usize;
        if k >= self.buf.len() {
            self.buf.resize_with(k + 1, || Input::Pending);
        }
        self.buf[k] = input;
    }

    /// Moves every published input into the buffer and, once helpers are
    /// wanted, raises their limit to `known` or [`WINDOW`] past the oldest
    /// input not yet taken, waking idle helpers if it rose.
    fn exchange(&mut self, claims: &mut Claims, known: u64) {
        for (n, work) in claims.done.drain(..) {
            self.place(n, Input::Ready(work));
        }
        let limit = known.min(self.first + WINDOW);
        if self.mode == Mode::Helped && limit > claims.limit {
            claims.limit = limit;
            if claims.idle > 0 {
                self.pipe.work.notify_all();
            }
        }
        self.raised = self.first;
    }
}

impl Drop for Feed<'_, '_, '_> {
    fn drop(&mut self) {
        let mut claims = self.pipe.lock();
        claims.stop = true;
        if claims.idle > 0 {
            self.pipe.work.notify_all();
        }
    }
}

/// Runs `body` on a feed of `inputs` for arrivals `origin` on, with
/// `helpers` threads generating ahead for as long as `body` runs. With no
/// helper, or inputs too cheap to hand over ([`HANDOVER_DRAWS`]), every
/// input is generated on demand and no helper starts. A helper's panic
/// resumes on the caller with its payload.
fn with_feed<'w, R>(
    inputs: RequestInputs<'w>,
    origin: u64,
    helpers: usize,
    body: impl for<'s, 'e> FnOnce(Feed<'s, 'e, 'w>) -> R,
) -> R {
    let claims = Claims {
        next: origin,
        limit: origin,
        ..Claims::default()
    };
    let pipe = Pipeline {
        inputs,
        claims: Mutex::new(claims),
        work: Condvar::new(),
        published: Condvar::new(),
    };
    std::thread::scope(|scope| {
        body(Feed {
            pipe: &pipe,
            scope,
            helpers,
            started: 0,
            mode: match helpers {
                0 => Mode::OnDemand,
                _ => Mode::Undecided,
            },
            first: origin,
            buf: VecDeque::new(),
            raised: origin,
        })
    })
}

/// Drives `arrivals` through `topo` until the kernel drains, then retires
/// every remaining worker and frees every slot, so a later source can
/// restart the clock at its origin. Returns the instant of the last arrival
/// and the largest number of events pending in the kernel at once.
///
/// Request inputs come from a [`Pipeline`] whose helpers, one per core
/// beyond the caller's, start once the first input shows they are worth
/// it and live as long as the run.
pub(crate) fn run<I: Iterator<Item = SimTime>>(
    session: &mut Session<'_>,
    topo: &mut Topology,
    arrivals: Arrivals<I>,
) -> (SimTime, usize) {
    // Reading the CPU count costs microseconds (cgroup files), so once per
    // run.
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let origin = match &arrivals {
        Arrivals::ClosedLoop { .. } => 0,
        Arrivals::Sorted { first, .. } => *first,
    };
    with_feed(session.inputs(), origin, cores - 1, |feed| {
        simulate(session, topo, arrivals, feed)
    })
}

/// [`run`]'s event loop, taking each arrival's input from `feed`.
fn simulate<I: Iterator<Item = SimTime>>(
    session: &mut Session<'_>,
    topo: &mut Topology,
    arrivals: Arrivals<I>,
    mut feed: Feed<'_, '_, '_>,
) -> (SimTime, usize) {
    let cfg = session.cfg;
    let (first, mut sorted, closed) = match arrivals {
        Arrivals::ClosedLoop { total, gap } => (0, None, Some((total, gap))),
        Arrivals::Sorted { first, iter } => (first, Some(iter), None),
    };
    let mut kernel = MergedQueue::new(LOOKAHEAD, first, Event::Arrival);
    if let Some((1.., gap)) = closed {
        kernel.schedule(SimTime::ZERO + gap, Event::Arrival(0));
    }
    // Idle probes run whenever provisioning is on, at most one pending at
    // a time so they never accumulate in the kernel: they retire idle
    // workers on time, and each retirement may plan a pre-restore.
    let probing = cfg.provision.enabled();
    let probe_gap = cfg.idle_timeout + SimDuration::from_micros(1);
    let mut probe_pending = false;
    // Pre-warmed workers are exempt from idle eviction: they wait on
    // their own expiry, to absorb the arrival that ends a long gap.
    let idle = |w: &Worker, now: SimTime| {
        w.pre_warmed_since.is_none() && now.saturating_since(w.last_active) > cfg.idle_timeout
    };
    let (mut last_now, mut last_arrival, mut peak_pending) = (SimTime::ZERO, SimTime::ZERO, 0);
    loop {
        if let Some(iter) = sorted.as_mut() {
            kernel.fill(iter);
        }
        peak_pending = peak_pending.max(kernel.len());
        let Some((now, event)) = kernel.pop() else {
            break;
        };
        last_now = now;
        match event {
            Event::Arrival(i) => {
                last_arrival = now;
                // The first arrival not yet known to exist: a closed loop's
                // end, or a sorted source's next unscheduled arrival.
                let known = match closed {
                    Some((total, _)) => total,
                    None => kernel.streamed(),
                };
                let (request, n, s) = topo.route(feed.take(i, known), i, now);
                let slot = &mut topo.nodes[n].slots[s].worker;
                if let Some(w) = slot.take_if(|w| idle(w, now)) {
                    session.retire(&mut topo.deps[topo.nodes[n].dep], w, now);
                }
                if topo.nodes[n].slots[s].worker.is_none() {
                    let (w, _) = topo.provision(session, n, s, now);
                    topo.nodes[n].slots[s].worker = Some(w);
                }
                topo.serve(session, (n, s), request, now);
                let slot = &mut topo.nodes[n].slots[s].worker;
                if let Some(w) = slot.take_if(|w| closed.is_some() && w.served >= cfg.eviction_rate)
                {
                    topo.evict(session, &mut kernel, (n, s), w, now);
                }
                if probing && !probe_pending {
                    kernel.schedule(now + probe_gap, Event::IdleCheck);
                    probe_pending = true;
                }
                if let Some((end, gap)) = closed {
                    if i + 1 < end {
                        kernel.schedule(now + gap, Event::Arrival(i + 1));
                    }
                }
            }
            Event::PreRestore { node, slot } => {
                let (n, s) = (node as usize, slot as usize);
                let d = topo.nodes[n].dep;
                if topo.nodes[n].slots[s].worker.is_some() {
                    // A reactive provision beat it to the slot.
                    topo.deps[d].cancel_pre_restore();
                    continue;
                }
                let (mut w, _) = topo.provision(session, n, s, now);
                session.mark_pre_restored(&mut topo.deps[d], &mut w, now);
                kernel.schedule(w.pre_warm_expires, Event::PreWarmExpiry);
                topo.nodes[n].slots[s].worker = Some(w);
            }
            Event::PreWarmExpiry => {
                // Keep-alives can differ per plan (the MPC arm picks its
                // own), so expiries are matched by scanning the slots in
                // deterministic (node, slot) order rather than FIFO.
                for n in 0..topo.nodes.len() {
                    for s in 0..topo.nodes[n].slots.len() {
                        let slot = &mut topo.nodes[n].slots[s].worker;
                        let expired = |w: &mut Worker| {
                            w.pre_warmed_since.is_some() && now >= w.pre_warm_expires
                        };
                        if let Some(w) = slot.take_if(expired) {
                            topo.evict(session, &mut kernel, (n, s), w, now);
                        }
                    }
                }
            }
            Event::IdleCheck => {
                probe_pending = false;
                let mut next_probe: Option<SimTime> = None;
                for n in 0..topo.nodes.len() {
                    for s in 0..topo.nodes[n].slots.len() {
                        let slot = &mut topo.nodes[n].slots[s].worker;
                        if let Some(w) = slot.take_if(|w| idle(w, now)) {
                            topo.evict(session, &mut kernel, (n, s), w, now);
                        } else if let Some(w) =
                            slot.as_ref().filter(|w| w.pre_warmed_since.is_none())
                        {
                            let at = next_probe.map_or(w.last_active, |t| t.min(w.last_active));
                            next_probe = Some(at);
                        }
                    }
                }
                if let Some(at) = next_probe {
                    kernel.schedule(at + probe_gap, Event::IdleCheck);
                    probe_pending = true;
                }
            }
        }
    }
    let Topology { deps, nodes, .. } = topo;
    for node in nodes.iter_mut() {
        for slot in &mut node.slots {
            if let Some(w) = slot.worker.take() {
                session.retire(&mut deps[node.dep], w, last_now);
            }
            slot.busy_until = SimTime::ZERO;
        }
    }
    (last_arrival, peak_pending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::plan::{ArrivalSpec, TopologySpec};
    use pronghorn_checkpoint::DeltaPolicy;
    use pronghorn_core::PolicyKind;
    use pronghorn_jit::{MethodProfile, RuntimeKind, RuntimeProfile};
    use pronghorn_sim::RngFactory;
    use pronghorn_workloads::{by_name, SpecWorkload, Workload};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn flat_storage_remote_fetch_walks_the_chain_serially() {
        // Cluster + delta K4 + flat storage at a contended 1 ms gap: the
        // run spills restores onto nodes that hold no copy of the blob.
        let workload = by_name("Hash").unwrap();
        let spec = ClusterSpec::new(4).with_routing(RoutingPolicy::LoadAware);
        let mut cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, 7)
            .with_invocations(120)
            .with_delta(DeltaPolicy::Enabled { max_depth: 4 })
            .with_cluster(spec);
        cfg.request_gap = SimDuration::from_millis(1);
        let mut session = Session::new(&workload, cfg, 0, None);
        let dep = Deployment::shared(&workload, &cfg);
        let mut topo = Topology::cluster(dep, spec, workload.name());
        let arrivals = Arrivals::closed_loop(cfg.invocations, cfg.request_gap);
        run(&mut session, &mut topo, arrivals);
        let locality = |topo: &Topology| match &topo.routing {
            Routing::Ring { dir, .. } => *dir.stats(),
            _ => unreachable!("a cluster topology routes on the ring"),
        };
        assert!(locality(&topo).remote_misses > 0);
        // Then restore on every node in turn. Each miss pays exactly the
        // flat store's serial walk of the restored chain over the remote
        // link — one latency per link on nominal bytes.
        let (now, mut chained_misses) = (SimTime::from_micros(1_000_000), 0);
        for n in (0..topo.nodes.len()).cycle().take(32) {
            let before = locality(&topo);
            let (w, download) = topo.provision(&mut session, n, 0, now);
            let after = locality(&topo);
            if after.remote_misses > before.remote_misses {
                let links = download.expect("a remote miss restores").chain_len;
                let nominal = after.remote_bytes - before.remote_bytes;
                let walk = spec.remote.chained_transfer_time(nominal, links);
                assert_eq!(after.remote_us - before.remote_us, walk.as_micros() as f64);
                chained_misses += u32::from(links > 1);
            }
            session.retire(&mut topo.deps[0], w, now);
        }
        assert!(chained_misses > 0, "no miss restored a delta chain");
    }

    #[test]
    fn classification_is_total_and_ordered() {
        for classes in 1..6 {
            for &f in &[0.01, 0.08, 0.2, 1.0, 3.0, 12.0, 100.0] {
                let k = classify_factor(f, classes);
                assert!(k < classes, "f={f} classes={classes} -> {k}");
            }
            // Monotone: larger factors never land in smaller classes.
            let ks: Vec<usize> = [0.1, 0.5, 1.0, 2.0, 8.0]
                .iter()
                .map(|&f| classify_factor(f, classes))
                .collect();
            assert!(ks.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn class_centres_are_inside_their_buckets() {
        for classes in 1..5 {
            for k in 0..classes {
                let centre = class_centre(k, classes);
                assert_eq!(classify_factor(centre, classes), k);
            }
        }
    }

    /// Delegates to a benchmark, counting `generate` calls and panicking
    /// on the one whose input stream starts with `poison`.
    struct Probe {
        inner: SpecWorkload,
        poison: Option<u64>,
        generates: AtomicU64,
    }

    impl Probe {
        fn new(bench: &str) -> Self {
            Probe {
                inner: by_name(bench).unwrap(),
                poison: None,
                generates: AtomicU64::new(0),
            }
        }

        /// Panics on arrival `index` of a run seeded `seed`.
        fn poisoned(bench: &str, seed: u64, index: u64) -> Self {
            let first = RngFactory::new(seed)
                .stream_indexed("input", index)
                .next_u64();
            Probe {
                poison: Some(first),
                ..Probe::new(bench)
            }
        }
    }

    impl Workload for Probe {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn kind(&self) -> RuntimeKind {
            self.inner.kind()
        }
        fn runtime_profile(&self) -> RuntimeProfile {
            self.inner.runtime_profile()
        }
        fn method_profiles(&self) -> Vec<MethodProfile> {
            self.inner.method_profiles()
        }
        fn generate(&self, rng: &mut dyn RngCore, variance: InputVariance) -> RequestWork {
            self.generates.fetch_add(1, Ordering::Relaxed);
            if let Some(poison) = self.poison {
                assert_ne!(rng.next_u64(), poison, "poisoned input");
            }
            self.inner.generate(rng, variance)
        }
        fn io_bound(&self) -> bool {
            self.inner.io_bound()
        }
    }

    fn paper_session(workload: &dyn Workload, seed: u64) -> Session<'_> {
        let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, seed);
        Session::new(workload, cfg, 0, None)
    }

    /// The payload of the panic `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_err();
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast::<&str>().unwrap().to_string(),
        }
    }

    /// Takes `order` from a feed of `inputs` run by `helpers` helpers,
    /// block by block: block `(known, order)` takes its arrivals, in its
    /// order, while `known` is the first arrival not yet known to exist.
    fn drive(
        inputs: RequestInputs<'_>,
        origin: u64,
        helpers: usize,
        blocks: &[(u64, Vec<u64>)],
    ) -> Vec<(u64, RequestWork)> {
        drive_counted(inputs, origin, helpers, blocks).0
    }

    /// [`drive`], also returning how many helper threads the feed started.
    fn drive_counted(
        inputs: RequestInputs<'_>,
        origin: u64,
        helpers: usize,
        blocks: &[(u64, Vec<u64>)],
    ) -> (Vec<(u64, RequestWork)>, usize) {
        with_feed(inputs, origin, helpers, |mut feed| {
            let mut taken = Vec::new();
            for (known, order) in blocks {
                for &i in order {
                    taken.push((i, feed.take(i, *known)));
                }
            }
            (taken, feed.started)
        })
    }

    /// Take orders over arrivals `origin..origin + total`: in order, fully
    /// shuffled, and a sorted source whose `known` grows by blocks of 37
    /// (the last one short), each block shuffled.
    fn orders(origin: u64, total: u64, seed: u64) -> Vec<Vec<(u64, Vec<u64>)>> {
        let end = origin + total;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut shuffled: Vec<u64> = (origin..end).collect();
        shuffled.shuffle(&mut rng);
        let growing = (origin..end)
            .step_by(37)
            .map(|from| {
                let known = (from + 37).min(end);
                let mut block: Vec<u64> = (from..known).collect();
                block.shuffle(&mut rng);
                (known, block)
            })
            .collect();
        vec![
            vec![(end, (origin..end).collect())],
            vec![(end, shuffled)],
            growing,
        ]
    }

    #[test]
    fn the_pipeline_gives_every_arrival_its_own_input() {
        // Uploader's inputs are generated on demand, with a shuffled first
        // take leaving the input that decided it buffered.
        for (bench, total) in [("Hash", 600), ("MST", 150), ("Uploader", 300)] {
            let workload = by_name(bench).unwrap();
            let inputs = paper_session(&workload, 3).inputs();
            for blocks in orders(5, total, 11) {
                for helpers in [0, 1, 3] {
                    for (i, work) in drive(inputs, 5, helpers, &blocks) {
                        assert_eq!(
                            work,
                            inputs.generate(i),
                            "{bench} arrival {i}, {helpers} helpers"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_pipeline_generates_each_known_arrival_once() {
        for bench in ["Hash", "Uploader"] {
            let workload = Probe::new(bench);
            let inputs = paper_session(&workload, 4).inputs();
            let generated = || workload.generates.load(Ordering::Relaxed);
            // 2,100 arrivals: several windows, and not a multiple of one.
            let total = 2_100;
            for blocks in orders(5, total, 12) {
                for helpers in [0, 1, 3] {
                    let before = generated();
                    drive(inputs, 5, helpers, &blocks);
                    assert_eq!(generated() - before, total, "{bench}, {helpers} helpers");
                }
            }
            // Never past the first arrival not yet known to exist, even
            // when it is the next one.
            let blocks: Vec<_> = (0..300).map(|i| (i + 1, vec![i])).collect();
            for helpers in [1, 3] {
                let before = generated();
                drive(inputs, 0, helpers, &blocks);
                assert_eq!(generated() - before, 300, "{bench}, {helpers} helpers");
            }
        }
    }

    /// Delegates to a benchmark, counting the `generate` calls made on
    /// any thread but the engine's (a helper's). With `gate`, each engine
    /// call after the first (which decides whether helpers are used) waits
    /// until a helper has started one, so a helper always claims an input.
    /// With `poison`, every helper call panics.
    struct OffEngine {
        inner: SpecWorkload,
        engine: std::thread::ThreadId,
        gate: bool,
        poison: bool,
        engine_calls: AtomicU64,
        helper_calls: AtomicU64,
        started: (Mutex<bool>, Condvar),
    }

    impl OffEngine {
        fn new(bench: &str, gate: bool, poison: bool) -> Self {
            OffEngine {
                inner: by_name(bench).unwrap(),
                engine: std::thread::current().id(),
                gate,
                poison,
                engine_calls: AtomicU64::new(0),
                helper_calls: AtomicU64::new(0),
                started: (Mutex::new(false), Condvar::new()),
            }
        }
    }

    impl Workload for OffEngine {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn kind(&self) -> RuntimeKind {
            self.inner.kind()
        }
        fn runtime_profile(&self) -> RuntimeProfile {
            self.inner.runtime_profile()
        }
        fn method_profiles(&self) -> Vec<MethodProfile> {
            self.inner.method_profiles()
        }
        fn generate(&self, rng: &mut dyn RngCore, variance: InputVariance) -> RequestWork {
            let (started, signal) = &self.started;
            if std::thread::current().id() != self.engine {
                self.helper_calls.fetch_add(1, Ordering::Relaxed);
                *started.lock().unwrap() = true;
                signal.notify_all();
                assert!(!self.poison, "poisoned input");
            } else if self.engine_calls.fetch_add(1, Ordering::Relaxed) > 0 && self.gate {
                let guard = started.lock().unwrap();
                drop(signal.wait_while(guard, |started| !*started).unwrap());
            }
            self.inner.generate(rng, variance)
        }
        fn io_bound(&self) -> bool {
            self.inner.io_bound()
        }
    }

    #[test]
    fn only_inputs_worth_handing_over_reach_the_helpers() {
        let blocks = [(2_000, (0..2_000).collect())];
        for helpers in [1, 3] {
            // Uploader's inputs draw 4 words each: all on demand, and no
            // helper thread starts.
            let cheap = OffEngine::new("Uploader", false, false);
            let inputs = paper_session(&cheap, 5).inputs();
            let (taken, started) = drive_counted(inputs, 0, helpers, &blocks);
            for (i, work) in taken {
                assert_eq!(work, inputs.generate(i), "Uploader arrival {i}");
            }
            assert_eq!(cheap.helper_calls.load(Ordering::Relaxed), 0);
            assert_eq!(started, 0, "{helpers} helpers");
            // Hash's draw over a thousand: every helper starts and they
            // take part.
            let costly = OffEngine::new("Hash", true, false);
            let (_, started) =
                drive_counted(paper_session(&costly, 5).inputs(), 0, helpers, &blocks);
            assert!(costly.helper_calls.load(Ordering::Relaxed) > 0);
            assert_eq!(started, helpers);
        }
    }

    #[test]
    fn a_panic_in_a_helper_resumes_on_the_engine_with_its_payload() {
        for helpers in [1, 3] {
            let workload = OffEngine::new("Hash", true, true);
            let inputs = paper_session(&workload, 4).inputs();
            // The engine generates arrivals 0 and 1, and a helper panics
            // on arrival 2, which the engine needs next. Whether the
            // engine is waiting for it by then or finds the payload at its
            // next look, it resumes the panic.
            let blocks = [(8, (0..8).collect())];
            let message = panic_message(|| {
                drive(inputs, 0, helpers, &blocks);
            });
            assert!(message.contains("poisoned input"), "{message}");
        }
        // And through the entry point, whatever the host's core count.
        let workload = Probe::poisoned("Hash", 4, 9);
        let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 4).with_invocations(10);
        let message = panic_message(|| {
            let _ = crate::run(
                &workload,
                &cfg,
                ArrivalSpec::ClosedLoop,
                TopologySpec::Single,
            );
        });
        assert!(message.contains("poisoned input"), "{message}");
    }

    #[test]
    fn a_helper_panic_wakes_the_engine_waiting_for_that_input() {
        let workload = by_name("Hash").unwrap();
        let inputs = paper_session(&workload, 4).inputs();
        let message = panic_message(|| {
            with_feed(inputs, 0, 0, |mut feed| {
                feed.mode = Mode::Helped;
                let pipe = feed.pipe;
                // Arrival 0, the only one known, is a helper's: the engine
                // has nothing to generate and must wait for it.
                pipe.lock().next = 1;
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let mut claims = pipe.lock();
                        while !claims.waiting {
                            drop(claims);
                            std::thread::yield_now();
                            claims = pipe.lock();
                        }
                        let payload: Box<dyn Any + Send> = Box::new("poisoned input");
                        pipe.publish(&mut claims, 0, Err(payload));
                    });
                    feed.take(0, 1)
                })
            });
        });
        assert!(message.contains("poisoned input"), "{message}");
    }

    #[test]
    fn events_fit_the_timer_wheel_node() {
        assert!(std::mem::size_of::<Event>() <= 16);
        // The wheel stores `Option<Event>`; the niche keeps it 16 bytes.
        assert_eq!(std::mem::size_of::<Option<Event>>(), 16);
    }
}
