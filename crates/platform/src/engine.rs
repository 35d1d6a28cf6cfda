//! The one deployment engine: the single event loop every runner drives.
//!
//! The paper's closed loop (§5.1), fleet amortization (§5.3) and
//! input-aware partitioning (§6) — and the trace, production and cluster
//! runners built on them — run one orchestration protocol: orchestrators,
//! snapshot pools and worker slots. They differ only in how many slots
//! there are and how requests reach them. [`run`] is that protocol, generic
//! over three inputs:
//!
//! - an **arrival source** ([`Arrivals`]): a self-scheduling closed loop
//!   that evicts workers by rate, or sorted arrival instants streamed
//!   through a bounded lookahead window that evict workers on idle;
//! - a **topology** ([`Topology`]): deployments × nodes × worker slots,
//!   plus the [`Routing`] rule that places each arrival;
//! - the [`Session`]'s measurement sink: per-event `Vec`s or O(1)
//!   streaming aggregates.
//!
//! Kernel events are typed ([`Event`]). With predictive provisioning
//! disabled only arrivals are ever scheduled, so the reactive event stream
//! is exactly the one the runners have always produced.

use crate::cluster::NodeBreakdown;
use crate::partitioned::{class_centre, classify_factor};
use crate::runner::{Deployment, Session};
use crate::worker::Worker;
use pronghorn_checkpoint::{CheckpointScratch, CodecStats};
use pronghorn_cluster::{
    BlobDirectory, ClusterSpec, HashRing, LocalityStats, PlacementPolicy, RoutingPolicy,
};
use pronghorn_jit::RequestWork;
use pronghorn_sim::{SimDuration, SimTime, TimerWheel};
use pronghorn_store::saturating_accumulate;
use pronghorn_workloads::InputVariance;

/// How many future arrivals a sorted source keeps scheduled in the kernel
/// at once. Arrivals stream in sorted, so a bounded window is lossless; it
/// keeps kernel memory O(lookahead) instead of O(invocations) over an
/// hours-long trace.
const LOOKAHEAD: usize = 1 << 16;

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

/// Where arrivals come from, and so how workers are evicted.
pub(crate) enum Arrivals<I> {
    /// Arrival `k` of `total` fires at `(k + 1) × gap`, scheduled by its
    /// predecessor. Workers retire after `cfg.eviction_rate` requests, and
    /// with `evict_idle` also after `cfg.idle_timeout` without one.
    ClosedLoop {
        total: u64,
        gap: SimDuration,
        evict_idle: bool,
    },
    /// Non-decreasing arrival instants, indexed from `first` (an
    /// out-of-order instant is clamped to the kernel clock). Workers retire
    /// after `cfg.idle_timeout` without a request.
    Sorted { first: u64, iter: I },
}

impl Arrivals<std::iter::Empty<SimTime>> {
    /// A closed loop of `total` requests `gap` apart.
    pub(crate) fn closed_loop(total: u32, gap: SimDuration, evict_idle: bool) -> Self {
        Arrivals::ClosedLoop {
            total: u64::from(total),
            gap,
            evict_idle,
        }
    }
}

/// How an arrival picks its node and slot.
pub(crate) enum Routing {
    /// One node with one slot.
    Single,
    /// One node; arrival `i` goes to slot `i mod slots`, and only the first
    /// `explorers` slots take checkpoints.
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
    /// The slot's own encode cache: a cached encode is only valid for the
    /// process instance that produced it.
    scratch: CheckpointScratch,
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

    /// One deployment on one node with one slot.
    pub(crate) fn single(dep: Deployment) -> Self {
        Topology::new(vec![dep], 1, 1, Routing::Single)
    }

    /// The cluster `spec` serving `function` behind a consistent-hash
    /// gateway. One function per run, so the probe order is fixed.
    pub(crate) fn cluster(dep: Deployment, spec: ClusterSpec, function: &str) -> Self {
        let probe = HashRing::new(spec.nodes).successors(HashRing::key_of(function));
        let dir = BlobDirectory::new(spec.nodes);
        let routing = Routing::Ring { spec, probe, dir };
        Topology::new(vec![dep], spec.nodes, spec.capacity, routing)
    }

    /// Every slot's encode counters, folded in (node, slot) order.
    pub(crate) fn codec(&self) -> CodecStats {
        let mut codec = CodecStats::default();
        for slot in self.nodes.iter().flat_map(|n| &n.slots) {
            codec.merge(slot.scratch.stats());
        }
        codec
    }

    /// The cluster's locality counters, after releasing every residency
    /// reference (conservation: they must all drain).
    pub(crate) fn teardown_locality(&mut self) -> LocalityStats {
        let Routing::Ring { dir, .. } = &mut self.routing else {
            return LocalityStats::default();
        };
        let locality = *dir.stats();
        dir.teardown();
        debug_assert_eq!(dir.total_refs(), 0, "residency refs must drain");
        locality
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
    /// cross-node fetch, and the snapshot's age there.
    fn provision(&mut self, session: &mut Session<'_>, n: usize, s: usize, now: SimTime) -> Worker {
        let (deps, nodes, routing) = (&mut self.deps, &mut self.nodes, &mut self.routing);
        let node = &mut nodes[n];
        let dep = &mut deps[node.dep];
        let explore = match routing {
            Routing::RoundRobin { explorers } => s < *explorers,
            _ => true,
        };
        let (mut worker, origin) = session.provision(dep, &mut node.slots[s].scratch, explore, now);
        let Routing::Ring { spec, dir, .. } = routing else {
            return worker;
        };
        // An immediately-due plan checkpoints inside provisioning; those
        // blobs become resident here.
        drain_pool_events(dep, dir, n as u32, spec, now);
        let Some(o) = origin else {
            node.stats.cold_starts += 1;
            return worker;
        };
        node.stats.restores += 1;
        // Price the would-be miss up front (pure in the inputs, so
        // computing it eagerly is value-identical): the legacy serial chain
        // walk without a storage tier, or one batched fetch of the composed
        // image's wire bytes with one (the per-page resolution already
        // collapsed the chain). `bytes` stays nominal either way,
        // preserving the conservation law under compression.
        let transfer = match dep.orch.storage() {
            Some(tier) => tier.price_remote_fetch(o.nominal, o.seed, &spec.remote),
            None => spec
                .remote
                .chained_transfer_time(o.nominal, o.chain_len.max(1)),
        };
        let access = dir.access_priced(o.id.0, n as u32, o.nominal, now, transfer);
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
        // The fetched image lands on this node's SSD tier (when there is
        // one), with the snapshot's θ-weight as admission priority.
        let weight = dep.orch.snapshot_weight(o.id);
        if let Some(tier) = dep.orch.storage_mut() {
            tier.admit(o.id.0, o.nominal, weight, &[]);
        }
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
        let Routing::Ring { spec, probe, dir } = routing else {
            session.serve(dep, &mut slot.scratch, w, request, 0.0, now);
            return;
        };
        node.stats.peak_workers = node.stats.peak_workers.max(occupied);
        let wait_us = slot.busy_until.saturating_since(now).as_micros() as f64;
        let latency = session.serve(dep, &mut slot.scratch, w, request, wait_us, now);
        drain_pool_events(dep, dir, n as u32, spec, now);
        node.stats.queue_delay_us += wait_us;
        slot.busy_until = now.max(slot.busy_until) + SimDuration::from_micros_f64(latency);
        node.stats.served += 1;
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

/// Drives `arrivals` through `topo` until the kernel drains, then retires
/// every remaining worker. Returns the instant of the last arrival and the
/// largest number of events pending in the kernel at once.
pub(crate) fn run<I: Iterator<Item = SimTime>>(
    session: &mut Session<'_>,
    topo: &mut Topology,
    arrivals: Arrivals<I>,
) -> (SimTime, usize) {
    let cfg = session.cfg;
    let mut kernel: TimerWheel<Event> = TimerWheel::new();
    let (mut sorted, closed, evict_idle) = match arrivals {
        Arrivals::ClosedLoop {
            total,
            gap,
            evict_idle,
        } => {
            if total > 0 {
                kernel.schedule(SimTime::ZERO + gap, Event::Arrival(0));
            }
            (None, Some((total, gap)), evict_idle)
        }
        Arrivals::Sorted { first, iter } => (Some((iter, first)), None, true),
    };
    // Idle probes run on sorted sources with provisioning on, at most one
    // pending at a time so they never accumulate in the kernel.
    let probing = sorted.is_some() && cfg.provision.enabled();
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
                let (request, n, s) = topo.route(session.generate(i), i, now);
                let slot = &mut topo.nodes[n].slots[s].worker;
                if let Some(w) = slot.take_if(|w| evict_idle && idle(w, now)) {
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
        }
    }
    (last_arrival, peak_pending)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fit_the_timer_wheel_node() {
        assert!(std::mem::size_of::<Event>() <= 16);
        // The wheel stores `Option<Event>`; the niche keeps it 16 bytes.
        assert_eq!(std::mem::size_of::<Option<Event>>(), 16);
    }
}
