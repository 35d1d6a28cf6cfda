//! Storage-tier invariance: with the tier *off* (the default) nothing
//! changes, and with it *on* the eager path stays latency-locked while
//! the accounting laws the ablations ride on keep holding.

#![forbid(unsafe_code)]

use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_cluster::{ClusterSpec, RoutingPolicy};
use pronghorn_core::PolicyKind;
use pronghorn_platform::{
    run_closed_loop, run_cluster, run_production, RestoreStrategy, RunConfig, StoragePolicy,
    StorageStats,
};
use pronghorn_sim::{RngFactory, SimDuration};
use pronghorn_traces::TraceSpec;
use pronghorn_workloads::by_name;

fn cfg(policy: PolicyKind, rate: u32) -> RunConfig {
    RunConfig::paper(policy, rate, 0xD15C).with_invocations(150)
}

#[test]
fn disabled_storage_policy_is_byte_identical_to_the_default() {
    // `with_storage(disabled())` must construct no tier: the run is the
    // same run, not an approximation of it.
    let bench = by_name("DFS").unwrap();
    let base = run_closed_loop(&bench, &cfg(PolicyKind::RequestCentric, 1));
    let gated = run_closed_loop(
        &bench,
        &cfg(PolicyKind::RequestCentric, 1).with_storage(StoragePolicy::disabled()),
    );
    assert_eq!(base.latencies_us, gated.latencies_us);
    assert_eq!(base.restore_bytes(), gated.restore_bytes());
    assert_eq!(
        base.overheads.nominal_bytes_downloaded,
        gated.overheads.nominal_bytes_downloaded
    );
    assert_eq!(base.storage, StorageStats::default());
    assert_eq!(gated.storage, StorageStats::default());
}

#[test]
fn eager_cache_and_compression_never_touch_the_critical_path() {
    // On the eager restore path the tier only reprices off-critical-path
    // transfer accounting: client latencies and nominal byte counters
    // must stay byte-identical to the flat run.
    let bench = by_name("Hash").unwrap();
    let flat_cfg =
        cfg(PolicyKind::RequestCentric, 1).with_delta(DeltaPolicy::Enabled { max_depth: 16 });
    let flat = run_closed_loop(&bench, &flat_cfg);
    let tiered = run_closed_loop(
        &bench,
        &flat_cfg.with_storage(StoragePolicy::disabled().with_cache().with_compression()),
    );
    assert_eq!(flat.latencies_us, tiered.latencies_us);
    assert_eq!(
        flat.overheads.nominal_bytes_downloaded,
        tiered.overheads.nominal_bytes_downloaded
    );
    assert_eq!(
        flat.overheads.nominal_bytes_uploaded,
        tiered.overheads.nominal_bytes_uploaded
    );
    assert_eq!(flat.restore_bytes(), tiered.restore_bytes());
    // ... while the tier itself was demonstrably exercised.
    assert!(tiered.storage.cache_hits > 0, "no SSD hits");
    assert!(
        tiered.storage.wire_bytes_uploaded > 0
            && tiered.storage.wire_bytes_uploaded < tiered.overheads.nominal_bytes_uploaded,
        "compression never shrank an upload"
    );
    assert!(tiered.storage.compress_us > 0.0);
}

#[test]
fn composed_prefetch_changes_only_download_accounting() {
    // Composed prefetch fetches a chain's recorded working set instead of
    // every blob of the chain. That shrinks what the store sends, and
    // nothing else of the run's byte accounting or provisioning.
    let bench = by_name("DFS").unwrap();
    let tier = StoragePolicy::disabled().with_cache().with_compression();
    let run = |storage| {
        run_closed_loop(
            &bench,
            &cfg(PolicyKind::RequestCentric, 1)
                .with_delta(DeltaPolicy::Enabled { max_depth: 16 })
                .with_restore(RestoreStrategy::RecordPrefetch)
                .with_storage(storage),
        )
    };
    let chained = run(tier);
    let composed = run(tier.with_composed_prefetch());
    assert!(
        composed.storage.composed_prefetches > 0,
        "prefetch never fired"
    );
    assert!(
        composed.overheads.nominal_bytes_downloaded < chained.overheads.nominal_bytes_downloaded
    );
    assert_eq!(composed.restore_bytes(), chained.restore_bytes());
    assert_eq!(
        composed.overheads.nominal_bytes_uploaded,
        chained.overheads.nominal_bytes_uploaded
    );
    assert_eq!(composed.provisions, chained.provisions);
}

#[test]
fn cluster_conservation_law_survives_cache_and_compression() {
    // Every restored byte is either a store download or a cross-node
    // transfer. Compression moves wire bytes and transfer time, never
    // nominal accounting — so the law must hold verbatim with the full
    // tier enabled on a contended multi-node cluster.
    let bench = by_name("Hash").unwrap();
    let spec = ClusterSpec::new(4)
        .with_capacity(1)
        .with_routing(RoutingPolicy::LoadAware);
    let mut c = cfg(PolicyKind::RequestCentric, 1)
        .with_delta(DeltaPolicy::Enabled { max_depth: 16 })
        .with_storage(StoragePolicy::disabled().with_cache().with_compression())
        .with_cluster(spec);
    c.request_gap = SimDuration::from_millis(1);
    let r = run_cluster(&bench, &c);
    assert!(r.locality.remote_misses > 0, "{:?}", r.locality);
    assert_eq!(
        r.result.restore_bytes(),
        r.result.overheads.nominal_bytes_downloaded + r.locality.remote_bytes
    );
    assert!(r.result.storage.cache_hits > 0);
}

#[test]
fn production_runs_carry_storage_stats() {
    let bench = by_name("Hash").unwrap();
    let c = cfg(PolicyKind::RequestCentric, 1)
        .with_delta(DeltaPolicy::Enabled { max_depth: 16 })
        .with_storage(StoragePolicy::disabled().with_cache().with_compression());
    let factory = RngFactory::new(17);
    let trace = TraceSpec::percentile(0.5).generate(&mut factory.stream("t"));
    let stats = run_production(&bench, &c, trace.arrivals().iter().copied());
    assert!(stats.checkpoints > 0);
    assert!(
        stats.storage.wire_bytes_uploaded > 0,
        "production runs must surface tier counters: {:?}",
        stats.storage
    );
}
