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
//!   through a bounded lookahead window; both evict workers on idle;
//! - a **topology** ([`Topology`]): deployments × nodes × worker slots,
//!   plus the [`Routing`] rule that places each arrival;
//! - the [`Session`]'s measurement sink: per-event `Vec`s or O(1)
//!   streaming aggregates.
//!
//! Kernel events are typed ([`Event`]). With predictive provisioning
//! disabled only arrivals are ever scheduled, so the reactive event stream
//! is exactly the one the reactive runs have always produced. Request
//! inputs are generated ahead of their arrivals, split across cores
//! ([`Ahead`]); an input depends only on its arrival number, so no result
//! depends on the core count.

use crate::result::NodeBreakdown;
use crate::runner::{Deployment, RequestInputs, Session};
use crate::worker::Worker;
use pronghorn_cluster::{
    BlobDirectory, ClusterSpec, HashRing, LocalityStats, PlacementPolicy, RoutingPolicy,
};
use pronghorn_jit::RequestWork;
use pronghorn_sim::{SimDuration, SimTime, TimerWheel};
use pronghorn_store::saturating_accumulate;
use pronghorn_workloads::InputVariance;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;

/// How many future arrivals a sorted source keeps scheduled in the kernel
/// at once. Arrivals stream in sorted, so a bounded window is lossless; it
/// keeps kernel memory O(lookahead) instead of O(invocations) over an
/// hours-long trace.
const LOOKAHEAD: usize = 1 << 16;

/// The most request inputs generated in one batch ahead of their
/// arrivals. It bounds the memory the generated inputs hold.
const GENERATE_AHEAD: u64 = 1 << 10;

/// A kernel event. It stays at 16 bytes (pinned by a test), so the timer
/// wheel's arena node stays 40 bytes across a replay's pending window.
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

    /// Provisions a worker into slot `s` of node `n`. Under ring routing a
    /// restore whose blob is not resident on the node also pays the
    /// cross-node fetch, and the snapshot's age there; any other topology
    /// has one node per deployment, so its restores are local hits.
    fn provision(&mut self, session: &mut Session<'_>, n: usize, s: usize, now: SimTime) -> Worker {
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
        let Some(dl) = download else {
            node.stats.cold_starts += 1;
            return worker;
        };
        node.stats.restores += 1;
        let Some((spec, dir)) = ring else {
            node.stats.local_hits += 1;
            return worker;
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
            return worker;
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
        worker
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
        kernel: &mut TimerWheel<Event>,
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

/// Request inputs generated ahead of their arrivals, indexed by arrival
/// number. Arrival `i`'s input depends only on the session seed and `i`,
/// so a batch can be split across cores and no result moves.
struct Ahead<'w> {
    inputs: RequestInputs<'w>,
    threads: usize,
    /// The arrival number of `buf[0]`.
    first: u64,
    /// Generated inputs; `None` once taken.
    buf: VecDeque<Option<RequestWork>>,
}

impl<'w> Ahead<'w> {
    fn new(inputs: RequestInputs<'w>, first: u64, threads: usize) -> Self {
        Ahead {
            inputs,
            threads,
            first,
            buf: VecDeque::new(),
        }
    }

    /// Arrival `i`'s input. Inputs not generated yet are generated in
    /// batches of at most [`GENERATE_AHEAD`] that stop before `known`, the
    /// first arrival not yet known to exist, so each arrival's input is
    /// generated exactly once. With one thread nothing is gained by
    /// generating ahead, so the input is generated on demand.
    fn take(&mut self, i: u64, known: u64) -> RequestWork {
        if self.threads == 1 {
            return self.inputs.generate(i);
        }
        let mut end = self.first + self.buf.len() as u64;
        while end <= i {
            let batch = end..(end + GENERATE_AHEAD).min(known.max(i + 1));
            end = batch.end;
            let inputs = generate_batch(self.inputs, batch, self.threads);
            self.buf.extend(inputs.into_iter().map(Some));
        }
        let taken = i
            .checked_sub(self.first)
            .and_then(|k| self.buf.get_mut(k as usize))
            .and_then(Option::take);
        while let Some(None) = self.buf.front() {
            self.buf.pop_front();
            self.first += 1;
        }
        // Each arrival is taken once, so only a repeated number misses.
        taken.unwrap_or_else(|| self.inputs.generate(i))
    }
}

/// The inputs of arrivals `batch`, in arrival order, split across
/// `threads` scoped threads; the caller's thread generates the first
/// share. A panic in `generate` resumes on the caller with its payload.
fn generate_batch(
    inputs: RequestInputs<'_>,
    batch: Range<u64>,
    threads: usize,
) -> Vec<RequestWork> {
    let (start, len) = (batch.start, batch.end.saturating_sub(batch.start));
    let threads = (threads as u64).clamp(1, len.max(1));
    let share = |t: u64| start + t * len / threads..start + (t + 1) * len / threads;
    let generate = |r: Range<u64>| r.map(|i| inputs.generate(i)).collect::<Vec<_>>();
    if threads == 1 {
        return generate(batch);
    }
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|t| scope.spawn(move || generate(share(t))))
            .collect();
        let mut out = generate(share(0));
        for helper in helpers {
            out.extend(
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        out
    })
}

/// Drives `arrivals` through `topo` until the kernel drains, then retires
/// every remaining worker and frees every slot, so a later source can
/// restart the clock at its origin. Returns the instant of the last arrival
/// and the largest number of events pending in the kernel at once.
pub(crate) fn run<I: Iterator<Item = SimTime>>(
    session: &mut Session<'_>,
    topo: &mut Topology,
    arrivals: Arrivals<I>,
) -> (SimTime, usize) {
    let cfg = session.cfg;
    let mut kernel: TimerWheel<Event> = TimerWheel::new();
    let (mut sorted, closed) = match arrivals {
        Arrivals::ClosedLoop { total, gap } => {
            if total > 0 {
                kernel.schedule(SimTime::ZERO + gap, Event::Arrival(0));
            }
            (None, Some((total, gap)))
        }
        Arrivals::Sorted { first, iter } => (Some((iter, first)), None),
    };
    // Reading the CPU count costs microseconds (cgroup files), so once per
    // run, not per batch.
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let first = sorted.as_ref().map_or(0, |(_, first)| *first);
    let mut ahead = Ahead::new(session.inputs(), first, threads);
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
        if let Some((iter, next)) = sorted.as_mut() {
            while kernel.len() < LOOKAHEAD {
                let Some(at) = iter.next() else { break };
                kernel.schedule(at, Event::Arrival(*next));
                *next += 1;
            }
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
                let known = match &sorted {
                    Some((_, next)) => *next,
                    None => closed.map_or(i + 1, |(total, _)| total),
                };
                let (request, n, s) = topo.route(ahead.take(i, known), i, now);
                let slot = &mut topo.nodes[n].slots[s].worker;
                if let Some(w) = slot.take_if(|w| idle(w, now)) {
                    session.retire(&mut topo.deps[topo.nodes[n].dep], w, now);
                }
                if topo.nodes[n].slots[s].worker.is_none() {
                    let w = topo.provision(session, n, s, now);
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
                let mut w = topo.provision(session, n, s, now);
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
    use crate::worker::DeltaTracking;
    use pronghorn_checkpoint::DeltaPolicy;
    use pronghorn_core::PolicyKind;
    use pronghorn_jit::{MethodProfile, RuntimeKind, RuntimeProfile};
    use pronghorn_sim::RngFactory;
    use pronghorn_workloads::{by_name, SpecWorkload, Workload};
    use rand::RngCore;
    use std::panic::AssertUnwindSafe;
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
            let w = topo.provision(&mut session, n, 0, now);
            let after = locality(&topo);
            if after.remote_misses > before.remote_misses {
                let depth = |d: &DeltaTracking| topo.deps[0].orch.chain_depth(d.parent.id);
                let links = w
                    .delta
                    .as_ref()
                    .and_then(depth)
                    .map_or(1, |k| k as usize + 1);
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

    #[test]
    fn batched_generation_matches_sequential_generation() {
        for bench in ["Compression", "MST"] {
            let workload = by_name(bench).unwrap();
            let inputs = paper_session(&workload, 3).inputs();
            // Batches of one, odd sizes, and sizes that are not a multiple
            // of any thread count below.
            for (start, len) in [(0, 1), (9, 1), (4, 2), (0, 5), (11, 13), (2, 64), (40, 101)] {
                let batch = start..start + len;
                let sequential: Vec<_> = batch.clone().map(|i| inputs.generate(i)).collect();
                for threads in [1, 2, 3, 7] {
                    let batched = generate_batch(inputs, batch.clone(), threads);
                    assert_eq!(
                        batched, sequential,
                        "{bench} {batch:?} on {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn ahead_generates_each_known_arrival_once_in_any_order() {
        let plain = by_name("Hash").unwrap();
        let expected = paper_session(&plain, 4).inputs();
        let workload = Probe::new("Hash");
        let inputs = paper_session(&workload, 4).inputs();
        let generated = || workload.generates.load(Ordering::Relaxed);
        // Arrivals 5.. of a source 2,100 long (not a multiple of the
        // batch), taken in reverse within blocks of 7, as a sorted source
        // pops them when its instants run backwards.
        let total = 7 * 300;
        let order: Vec<u64> = (0..total).map(|k| 5 + k / 7 * 7 + (6 - k % 7)).collect();
        for threads in [2, 3] {
            let mut ahead = Ahead::new(inputs, 5, threads);
            let before = generated();
            for &i in &order {
                assert_eq!(
                    ahead.take(i, 5 + total),
                    expected.generate(i),
                    "arrival {i}"
                );
            }
            assert_eq!(generated() - before, total, "{threads} threads");
            assert!(ahead.buf.is_empty());
        }
        // Never past the first arrival not yet known to exist.
        let mut ahead = Ahead::new(inputs, 0, 2);
        for i in 0..10 {
            assert_eq!(ahead.take(i, i + 1), expected.generate(i));
        }
        assert_eq!(generated(), 2 * total + 10);
    }

    #[test]
    fn a_panic_in_a_helper_share_resumes_with_its_payload() {
        let workload = Probe::poisoned("Hash", 4, 9);
        let inputs = paper_session(&workload, 4).inputs();
        // Arrival 9 is in the last share: a helper thread's.
        for threads in [2, 3] {
            let message = panic_message(|| {
                generate_batch(inputs, 0..10, threads);
            });
            assert!(message.contains("poisoned input"), "{message}");
        }
        // And through the entry point, whatever the host's core count.
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
    fn events_fit_the_timer_wheel_node() {
        assert!(std::mem::size_of::<Event>() <= 16);
        // The wheel stores `Option<Event>`; the niche keeps it 16 bytes.
        assert_eq!(std::mem::size_of::<Option<Event>>(), 16);
    }
}
