//! `run_production`'s whole [`ProductionStats`], pinned bit for bit at a
//! tiny scale. The `Debug` form prints every float as its shortest
//! round-trip decimal and a negative zero as `-0.0`, so comparing it
//! compares every field's bits: a total summed in another order, or an
//! empty total that comes out as `-0.0`, fails here.

#![forbid(unsafe_code)]

use pronghorn_core::PolicyKind;
use pronghorn_forecast::{ForecasterKind, ProvisionPolicy};
use pronghorn_platform::{run_production, ProductionStats, RestoreStrategy, RunConfig};
use pronghorn_sim::{RngFactory, SimDuration};
use pronghorn_traces::{ProductionTraceSpec, TraceSpec};
use pronghorn_workloads::by_name;

/// The stats of `cfg` replaying `spec`'s stream on Uploader, seeded 7.
fn replay(cfg: &RunConfig, spec: ProductionTraceSpec) -> ProductionStats {
    let workload = by_name("Uploader").unwrap();
    let arrivals = spec.stream(RngFactory::new(7).stream("production"));
    run_production(&workload, cfg, arrivals)
}

/// The storage tier is off in both pins, so its counters are all zero.
const NO_STORAGE: &str = "storage: StorageStats { cache_hits: 0, cache_misses: 0, \
     cache_admits: 0, cache_evictions: 0, cache_rejects: 0, cache_hit_bytes: 0, \
     cache_miss_bytes: 0, cache_evicted_bytes: 0, wire_bytes_downloaded: 0, \
     wire_bytes_uploaded: 0, compress_us: 0.0, decompress_us: 0.0, composed_prefetches: 0, \
     composed_bytes_saved: 0 }";

#[test]
fn cold_production_stats_are_pinned() {
    // No checkpoint and no restore: every float total is an empty sum,
    // which must read 0.0, not -0.0.
    let cfg = RunConfig::paper(PolicyKind::Cold, 4, 7);
    let stats = replay(&cfg, TraceSpec::production(0.001, 0.9));
    let expected = format!(
        "ProductionStats {{ invocations: 627, mean_latency_us: 714047.2593450125, \
         p50_latency_us: 460426.53234896774, p99_latency_us: 3833654.388966215, \
         max_latency_us: 7570341.62114875, cold_starts: 1, restores: 0, checkpoints: 0, \
         checkpoint_ms_total: 0.0, restore_ms_total: 0.0, snapshot_mb_total: 0.0, \
         restore_faults: 0, provision_us_total: 198847.0, provisioning: ProvisionStats {{ \
         pre_restores_issued: 0, pre_restores_used: 0, pre_restores_wasted: 0, \
         keepalive_byte_s: 0.0 }}, {NO_STORAGE}, end_time: SimTime(3596305), \
         peak_pending_events: 627 }}"
    );
    assert_eq!(format!("{stats:?}"), expected);
}

#[test]
fn production_replay_stats_are_pinned() {
    // The benchmark's production-replay configuration on a 7.2 s stream.
    let cfg = RunConfig::paper(PolicyKind::RequestCentric, 20, 7)
        .with_restore(RestoreStrategy::RecordPrefetch)
        .with_provision(ProvisionPolicy::predictive(ForecasterKind::Ewma))
        .with_idle_timeout(SimDuration::from_secs(30))
        .with_checkpoint_stop(200);
    let spec = TraceSpec::production(0.002, 0.99).with_burst(0.25, SimDuration::from_secs(600));
    let stats = replay(&cfg, spec);
    let expected = format!(
        "ProductionStats {{ invocations: 22860, mean_latency_us: 743314.219313687, \
         p50_latency_us: 438080.04719380167, p99_latency_us: 4724564.771039578, \
         max_latency_us: 9907240.37349534, cold_starts: 1, restores: 116, checkpoints: 1, \
         checkpoint_ms_total: 83.0, restore_ms_total: 1044.0, snapshot_mb_total: 52.1875, \
         restore_faults: 0, provision_us_total: 14394543.0, provisioning: ProvisionStats {{ \
         pre_restores_issued: 116, pre_restores_used: 0, pre_restores_wasted: 116, \
         keepalive_byte_s: 761738035200.0 }}, {NO_STORAGE}, end_time: SimTime(7199407), \
         peak_pending_events: 22860 }}"
    );
    assert_eq!(format!("{stats:?}"), expected);
}
