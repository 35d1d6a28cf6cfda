//! The orchestration-policy interface.
//!
//! §4: "we designed the Orchestrator to execute policies through a minimal
//! abstract interface ... the policy must implement interface functions
//! that dictate which snapshot to use when starting a new worker and when
//! to checkpoint a running worker." This trait is that interface, plus the
//! knowledge-update and pool-management hooks of Algorithm 1.

use crate::pool::PoolEntry;
use crate::weights::WeightVector;
use pronghorn_checkpoint::SnapshotId;
use rand::RngCore;

/// What a new worker should start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartDecision {
    /// Boot a fresh runtime (no snapshot).
    Cold,
    /// Restore from the identified pooled snapshot.
    Restore(SnapshotId),
}

/// Identifier of the built-in policies, for experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No checkpoint/restore at all.
    Cold,
    /// The state of the art: checkpoint once, immediately after the first
    /// request (Catalyzer, FireWorks, Prebaking, Groundhog, SnapStart).
    AfterFirst,
    /// Variant: checkpoint after initialization but *before* the first
    /// request (inferior because of lazy runtime initialization, §5.1).
    AfterInit,
    /// Pronghorn's request-centric policy (Algorithm 1).
    RequestCentric,
}

impl PolicyKind {
    /// Display label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Cold => "cold",
            PolicyKind::AfterFirst => "after-1st",
            PolicyKind::AfterInit => "after-init",
            PolicyKind::RequestCentric => "request-centric",
        }
    }
}

/// A checkpoint orchestration policy.
///
/// All randomness is drawn from the caller-provided RNG so policy behaviour
/// replays deterministically under a fixed seed.
pub trait Policy: Send {
    /// Which built-in policy this is.
    fn kind(&self) -> PolicyKind;

    /// `OnContainerInit`: decides what a new worker starts from.
    fn on_worker_start(&mut self, rng: &mut dyn RngCore) -> StartDecision;

    /// `OnContainerStart`: given the request number the worker starts at,
    /// returns the absolute request number at which to checkpoint it, or
    /// `None` to never checkpoint this worker.
    fn plan_checkpoint(&mut self, start_request: u32, rng: &mut dyn RngCore) -> Option<u32>;

    /// `OnRequest`: folds one end-to-end latency into the policy's
    /// knowledge.
    fn record_latency(&mut self, request_number: u32, latency_us: f64);

    /// Registers a snapshot that was just taken; returns the entries the
    /// pool evicted (whose blobs the orchestrator deletes from the store).
    fn on_snapshot_taken(&mut self, entry: PoolEntry, rng: &mut dyn RngCore) -> Vec<PoolEntry>;

    /// Request number a pooled snapshot was taken at (restores resume
    /// there), or `None` if unknown.
    fn snapshot_request_number(&self, id: SnapshotId) -> Option<u32>;

    /// Number of snapshots currently pooled.
    fn pool_len(&self) -> usize;

    /// The learned weight vector θ, for policies that learn one (`None`
    /// for the baselines). The orchestrator reads single slots of it as
    /// the cache tier's admission priority, and charges a policy that has
    /// one the weight-write overhead on every request.
    fn theta(&self) -> Option<&WeightVector> {
        None
    }

    /// Marks a pooled snapshot as having a recorded working-set manifest
    /// (prefetch-ready). Policies that price restore cost into selection
    /// may stop penalizing it; the default ignores the hint.
    fn note_prefetch_ready(&mut self, _id: SnapshotId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyKind::Cold.label(), "cold");
        assert_eq!(PolicyKind::AfterFirst.label(), "after-1st");
        assert_eq!(PolicyKind::AfterInit.label(), "after-init");
        assert_eq!(PolicyKind::RequestCentric.label(), "request-centric");
    }
}
