//! A function worker: one runtime instance plus its lifecycle state.

use pronghorn_checkpoint::Snapshot;
use pronghorn_jit::Runtime;
use pronghorn_restore::{LazyImage, RestoreInfo, DEFAULT_PAGE_SIZE};
use pronghorn_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::collections::BTreeSet;

/// Lineage state a delta-checkpointing worker carries: the snapshot it
/// was restored from (the prospective delta parent) and the image pages
/// its requests have dirtied since.
#[derive(Debug, Clone)]
pub struct DeltaTracking {
    /// Snapshot this worker was restored from: its payload is the
    /// physical diff base (a shared buffer, not a copy).
    pub parent: Snapshot,
    /// Nominal image pages touched by requests served since the restore —
    /// the union of the runtime's deterministic page-access traces, i.e.
    /// what an incremental engine's soft-dirty tracking would report.
    pub dirty_pages: BTreeSet<u32>,
}

impl DeltaTracking {
    /// Image pages the parent covered, on the nominal page grid.
    pub fn parent_page_count(&self) -> u32 {
        self.parent.nominal_size.div_ceil(DEFAULT_PAGE_SIZE) as u32
    }
}

/// A live worker hosting one function runtime.
#[derive(Debug)]
pub struct Worker {
    /// The JIT runtime executing requests.
    pub runtime: Runtime,
    /// Per-worker RNG stream (JIT jitter, deopt draws).
    pub rng: SmallRng,
    /// Requests served by *this* worker (not the lineage).
    pub served: u32,
    /// Request number the worker resumed at (0 for a cold start).
    pub resume_request: u32,
    /// Absolute request number at which the policy wants a checkpoint.
    pub checkpoint_at: Option<u32>,
    /// How this worker was restored, with its accumulated fault/prefetch
    /// stats; `None` for a cold boot.
    pub restore: Option<RestoreInfo>,
    /// The lazily-mapped snapshot image, when restored under a lazy
    /// strategy; eager restores and cold boots have none.
    pub image: Option<LazyImage>,
    /// Delta lineage state, present only when delta checkpointing is on
    /// and the worker was restored from a snapshot (cold-started workers
    /// have no parent and always checkpoint full roots).
    pub delta: Option<DeltaTracking>,
    /// Virtual time of the last served request (idle-eviction clock).
    pub last_active: SimTime,
    /// When this worker was warmed by a *pre-restore* (predictive
    /// provisioning) and has not yet served; `None` for reactively
    /// provisioned workers and after the first request resolves the
    /// pre-restore. While set, [`Self::pre_warm_expires`] bounds how long
    /// the warm worker is held before being retired as wasted.
    pub pre_warmed_since: Option<SimTime>,
    /// When an unused pre-restored worker expires (wasted). Meaningful
    /// only while [`Self::pre_warmed_since`] is set.
    pub pre_warm_expires: SimTime,
    /// Requests' worth of IO-state freshening the worker banked while
    /// pre-warmed: background re-establishment between the pre-restore
    /// and the first request ages the stale-IO penalty down exactly as
    /// served requests would. Zero for reactive workers, so the stale
    /// math is bit-identical with provisioning disabled.
    pub prewarm_credit: u32,
    /// How far the serving node's clock had run past the restored
    /// snapshot's checkpoint time when the restore crossed a node
    /// boundary: the staleness horizon is per-*node*, not per-run, so a
    /// remote restore re-establishes older IO state than a local one.
    /// Zero for cold boots, local restores and every single-node run —
    /// the single-node staleness math is bit-identical at age zero.
    pub stale_age: SimDuration,
}

impl Worker {
    /// Creates a worker around a freshly provisioned runtime.
    pub fn new(
        runtime: Runtime,
        rng: SmallRng,
        resume_request: u32,
        checkpoint_at: Option<u32>,
        restore: Option<RestoreInfo>,
        now: SimTime,
    ) -> Self {
        Worker {
            runtime,
            rng,
            served: 0,
            resume_request,
            checkpoint_at,
            restore,
            image: None,
            delta: None,
            last_active: now,
            pre_warmed_since: None,
            pre_warm_expires: SimTime::ZERO,
            prewarm_credit: 0,
            stale_age: SimDuration::ZERO,
        }
    }

    /// Whether the worker was restored from a snapshot (at any point in
    /// its history — not the same thing as being *freshly* restored).
    pub fn restored(&self) -> bool {
        self.restore.is_some()
    }

    /// 0-based request number of the *next* request this worker will serve
    /// within its function's lineage.
    pub fn next_request_number(&self) -> u64 {
        self.runtime.requests_executed()
    }

    /// Whether the policy's checkpoint point has been reached.
    pub fn checkpoint_due(&self) -> bool {
        match self.checkpoint_at {
            Some(at) => self.runtime.requests_executed() >= u64::from(at),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_jit::{MethodProfile, MethodWork, RequestWork, RuntimeProfile};
    use rand::SeedableRng;

    fn runtime() -> (Runtime, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(1);
        let (rt, _) = Runtime::cold_start(
            RuntimeProfile::jvm(),
            vec![MethodProfile::new("m")],
            &mut rng,
        );
        (rt, rng)
    }

    #[test]
    fn next_request_number_tracks_lineage() {
        let (rt, rng) = runtime();
        let mut w = Worker::new(rt, rng, 0, Some(2), None, SimTime::ZERO);
        assert_eq!(w.next_request_number(), 0);
        assert!(!w.checkpoint_due());
        let work = RequestWork::new(vec![MethodWork {
            method: 0,
            units: 10.0,
            calls: 1.0,
        }]);
        w.runtime.execute(&work, &mut w.rng);
        w.runtime.execute(&work, &mut w.rng);
        assert_eq!(w.next_request_number(), 2);
        assert!(w.checkpoint_due());
    }

    #[test]
    fn checkpoint_at_zero_is_due_immediately() {
        let (rt, rng) = runtime();
        let w = Worker::new(rt, rng, 0, Some(0), None, SimTime::ZERO);
        assert!(w.checkpoint_due());
        let (rt, rng) = runtime();
        let w = Worker::new(rt, rng, 0, None, None, SimTime::ZERO);
        assert!(!w.checkpoint_due());
    }

    #[test]
    fn restored_outlives_the_stale_window() {
        let (rt, rng) = runtime();
        let info = RestoreInfo::eager(50_000.0, 12 << 20);
        let mut w = Worker::new(rt, rng, 5, None, Some(info), SimTime::ZERO);
        assert!(w.restored());
        // Staleness decays with served requests (the session's stale
        // window), but the worker stays "restored" for its whole life.
        w.served = 100;
        assert!(w.restored());
        let (rt, rng) = runtime();
        let cold = Worker::new(rt, rng, 0, None, None, SimTime::ZERO);
        assert!(!cold.restored());
    }
}
