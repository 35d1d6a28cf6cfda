//! Deterministic work-count gate for the restore path.
//!
//! Runs the benchmark's `restore-chain` configuration at a small scale —
//! request-centric at rate 1 (every request provisions a worker), K=16
//! delta chains, record-prefetch restores, and the full storage tier —
//! and bounds the object-store operations per checkpoint and per restore.
//! Page maps are recomputed from the snapshot, so a snapshot costs one
//! blob plus at most one working-set manifest in the store; a change that
//! stores per-page objects again fails here on counts, not on timing.

#![forbid(unsafe_code)]

use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_core::PolicyKind;
use pronghorn_platform::{run_closed_loop, RestoreStrategy, RunConfig, StoragePolicy};
use pronghorn_workloads::by_name;

/// The delta-chain depth bound of the configuration.
const MAX_DEPTH: u32 = 16;

fn restore_chain(seed: u64) -> RunConfig {
    RunConfig::paper(PolicyKind::RequestCentric, 1, seed)
        .with_invocations(100)
        .with_delta(DeltaPolicy::Enabled {
            max_depth: MAX_DEPTH,
        })
        .with_restore(RestoreStrategy::RecordPrefetch)
        .with_storage(
            StoragePolicy::disabled()
                .with_cache()
                .with_compression()
                .with_composed_prefetch(),
        )
}

#[test]
fn restore_chain_store_work_is_bounded_per_snapshot_and_restore() {
    for (seed, bench) in [(1, "DFS"), (2, "Hash"), (3, "Uploader")] {
        let r = run_closed_loop(&by_name(bench).unwrap(), &restore_chain(seed));
        let checkpoints = r.overheads.checkpoints;
        let restores = r.restores() as u64;
        let stats = r.store_stats;
        // The configuration really exercises the paths being bounded.
        assert!(checkpoints > 0 && restores > 0, "{bench}: {r:?}");
        assert!(r.chain.deltas > 0, "{bench}: no deltas: {:?}", r.chain);
        assert!(r.prefetched_pages() > 0, "{bench}: nothing prefetched");
        // One snapshot blob plus at most one manifest per checkpoint.
        assert!(
            stats.puts <= 2 * checkpoints,
            "{bench}: {} puts for {checkpoints} checkpoints",
            stats.puts
        );
        // Per restore: the composed chain's blobs (at most K deltas and
        // their root) plus at most two manifest reads (download pricing
        // and the restore itself).
        assert!(
            stats.gets <= (u64::from(MAX_DEPTH) + 3) * restores,
            "{bench}: {} gets for {restores} restores",
            stats.gets
        );
        // Every checkpoint is encoded exactly once.
        assert_eq!(r.codec.encodes, checkpoints, "{bench}");
    }
}
