//! Baseline orchestration policies (§5.1 "Orchestration policies").
//!
//! - [`ColdStartPolicy`]: "starting the workload anew each time a worker
//!   is initialized (no checkpoint-restore)";
//! - [`FixedPointPolicy::after_first`]: the state of the art —
//!   "checkpointing immediately after the first request is complete, and
//!   resuming from that snapshot hereafter" (Catalyzer, FireWorks,
//!   Prebaking, Groundhog, Lambda SnapStart);
//! - [`FixedPointPolicy::after_init`]: the after-initialization variant the
//!   paper notes "results in inferior performance as runtimes lazily
//!   initialize many internal data structures" — kept as an ablation.

use crate::policy::{Policy, PolicyKind, StartDecision};
use crate::pool::PoolEntry;
use pronghorn_checkpoint::SnapshotId;
use rand::RngCore;

/// No checkpoint/restore: every worker cold-starts.
#[derive(Debug, Clone, Default)]
pub struct ColdStartPolicy;

impl Policy for ColdStartPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Cold
    }

    fn on_worker_start(&mut self, _rng: &mut dyn RngCore) -> StartDecision {
        StartDecision::Cold
    }

    fn plan_checkpoint(&mut self, _start: u32, _rng: &mut dyn RngCore) -> Option<u32> {
        None
    }

    fn record_latency(&mut self, _r: u32, _latency_us: f64) {}

    fn on_snapshot_taken(&mut self, entry: PoolEntry, _rng: &mut dyn RngCore) -> Vec<PoolEntry> {
        // A cold policy never asks for snapshots; drop any handed to it.
        vec![entry]
    }

    fn snapshot_request_number(&self, _id: SnapshotId) -> Option<u32> {
        None
    }

    fn pool_len(&self) -> usize {
        0
    }
}

/// Checkpoint once at a fixed request number, restore forever after: the
/// two checkpoint-once baselines differ only in that request number.
#[derive(Debug, Clone)]
pub struct FixedPointPolicy {
    kind: PolicyKind,
    /// Request number at which the single snapshot is taken.
    checkpoint_at: u32,
    snapshot: Option<PoolEntry>,
}

impl FixedPointPolicy {
    /// The state-of-the-art policy: snapshot right after request 1.
    pub fn after_first() -> Self {
        FixedPointPolicy::new(PolicyKind::AfterFirst, 1)
    }

    /// The after-initialization variant: snapshot before the first request.
    pub fn after_init() -> Self {
        FixedPointPolicy::new(PolicyKind::AfterInit, 0)
    }

    fn new(kind: PolicyKind, checkpoint_at: u32) -> Self {
        FixedPointPolicy {
            kind,
            checkpoint_at,
            snapshot: None,
        }
    }
}

impl Policy for FixedPointPolicy {
    fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn on_worker_start(&mut self, _rng: &mut dyn RngCore) -> StartDecision {
        match &self.snapshot {
            Some(entry) => StartDecision::Restore(entry.id),
            None => StartDecision::Cold,
        }
    }

    fn plan_checkpoint(&mut self, start: u32, _rng: &mut dyn RngCore) -> Option<u32> {
        // Only the first (cold) worker, and only if the snapshot has not
        // been taken yet.
        if self.snapshot.is_none() && start <= self.checkpoint_at {
            Some(self.checkpoint_at)
        } else {
            None
        }
    }

    fn record_latency(&mut self, _r: u32, _latency_us: f64) {}

    fn on_snapshot_taken(&mut self, entry: PoolEntry, _rng: &mut dyn RngCore) -> Vec<PoolEntry> {
        match &self.snapshot {
            // Keep the first snapshot forever; discard any extras.
            Some(_) => vec![entry],
            None => {
                self.snapshot = Some(entry);
                Vec::new()
            }
        }
    }

    fn snapshot_request_number(&self, id: SnapshotId) -> Option<u32> {
        self.snapshot
            .as_ref()
            .filter(|e| e.id == id)
            .map(|e| e.request_number)
    }

    fn pool_len(&self) -> usize {
        usize::from(self.snapshot.is_some())
    }
}

/// Constructs any built-in policy by kind, with the given request-centric
/// configuration.
pub fn make_policy(kind: PolicyKind, config: crate::PolicyConfig) -> Box<dyn Policy> {
    match kind {
        PolicyKind::Cold => Box::new(ColdStartPolicy),
        PolicyKind::AfterFirst => Box::new(FixedPointPolicy::after_first()),
        PolicyKind::AfterInit => Box::new(FixedPointPolicy::after_init()),
        PolicyKind::RequestCentric => Box::new(crate::RequestCentricPolicy::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn entry(id: u64, r: u32) -> PoolEntry {
        PoolEntry {
            id: SnapshotId(id),
            request_number: r,
            size_bytes: 1,
        }
    }

    #[test]
    fn cold_policy_never_checkpoints_or_restores() {
        let mut p = ColdStartPolicy;
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(p.on_worker_start(&mut rng), StartDecision::Cold);
        assert_eq!(p.plan_checkpoint(0, &mut rng), None);
        assert_eq!(p.pool_len(), 0);
        // Unsolicited snapshots are discarded.
        assert_eq!(p.on_snapshot_taken(entry(1, 0), &mut rng).len(), 1);
    }

    #[test]
    fn after_first_checkpoints_once_at_request_one() {
        let mut p = FixedPointPolicy::after_first();
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(p.on_worker_start(&mut rng), StartDecision::Cold);
        assert_eq!(p.plan_checkpoint(0, &mut rng), Some(1));
        assert!(p.on_snapshot_taken(entry(9, 1), &mut rng).is_empty());
        // From now on: always restore the single snapshot, never checkpoint.
        assert_eq!(
            p.on_worker_start(&mut rng),
            StartDecision::Restore(SnapshotId(9))
        );
        assert_eq!(p.plan_checkpoint(1, &mut rng), None);
        assert_eq!(p.snapshot_request_number(SnapshotId(9)), Some(1));
        assert_eq!(p.pool_len(), 1);
        // Extra snapshots are rejected back for deletion.
        assert_eq!(p.on_snapshot_taken(entry(10, 2), &mut rng).len(), 1);
        assert_eq!(
            p.on_worker_start(&mut rng),
            StartDecision::Restore(SnapshotId(9))
        );
    }

    #[test]
    fn after_init_checkpoints_before_first_request() {
        let mut p = FixedPointPolicy::after_init();
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(p.plan_checkpoint(0, &mut rng), Some(0));
        p.on_snapshot_taken(entry(5, 0), &mut rng);
        assert_eq!(p.snapshot_request_number(SnapshotId(5)), Some(0));
    }

    #[test]
    fn after_first_does_not_plan_for_warm_workers() {
        let mut p = FixedPointPolicy::after_first();
        let mut rng = SmallRng::seed_from_u64(4);
        // A worker starting past the checkpoint point gets no plan.
        assert_eq!(p.plan_checkpoint(5, &mut rng), None);
    }

    #[test]
    fn factory_builds_each_kind() {
        for kind in [
            PolicyKind::Cold,
            PolicyKind::AfterFirst,
            PolicyKind::AfterInit,
            PolicyKind::RequestCentric,
        ] {
            let p = make_policy(kind, crate::PolicyConfig::paper_pypy());
            assert_eq!(p.kind(), kind);
        }
    }
}
