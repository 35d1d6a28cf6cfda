//! Sorted arrival sources at the engine level: a stream longer than the
//! engine's 2^16-arrival lookahead window whose instants tie with idle
//! probes and pre-restores, pinned bit for bit, and a closed loop checked
//! against the evenly spaced trace that matches it.

#![forbid(unsafe_code)]

use pronghorn_core::PolicyKind;
use pronghorn_platform::{
    run, run_production, ArrivalSpec, ForecasterKind, ProvisionPolicy, RestoreStrategy, RunConfig,
    RunResult, TopologySpec,
};
use pronghorn_sim::{SimDuration, SimTime};
use pronghorn_traces::Trace;
use pronghorn_workloads::{by_name, InputVariance};

/// Arrivals at one instant: more than the lookahead window holds, so the
/// last of them enter it only after the idle probe they tie with was
/// scheduled.
const BURST: u64 = 70_000;

/// The benchmark's `production-replay` configuration: a 30 s idle timeout,
/// so an idle probe fires 30 s + 1 µs after a worker's last request, and a
/// pre-restore fires 1 µs after the probe that retired it.
fn replay_cfg() -> RunConfig {
    RunConfig::paper(PolicyKind::RequestCentric, 20, 7)
        .with_restore(RestoreStrategy::RecordPrefetch)
        .with_provision(ProvisionPolicy::predictive(ForecasterKind::Ewma))
        .with_idle_timeout(SimDuration::from_secs(30))
        .with_checkpoint_stop(200)
}

/// Three cycles of: a burst of [`BURST`] arrivals at one instant `t`, one
/// arrival on the idle probe that follows it (`t + 30 s + 1 µs`), one on
/// the pre-restore that probe plans (1 µs later), one on the next idle
/// probe (30 s + 1 µs after the first), and one on the pre-restore planned
/// by the probe after that, which finds the worker idle.
fn tied_stream() -> Vec<SimTime> {
    let probe_gap = 30_000_001;
    let mut arrivals = Vec::new();
    for cycle in 0..3u64 {
        let t = 1_000_000 + cycle * 600_000_000;
        arrivals.extend(std::iter::repeat_n(SimTime::from_micros(t), BURST as usize));
        let probe = t + probe_gap;
        let (next_probe, last_probe) = (probe + probe_gap, probe + 2 * probe_gap);
        arrivals.extend([probe, probe + 1, next_probe, last_probe + 1].map(SimTime::from_micros));
    }
    arrivals
}

#[test]
fn a_stream_past_the_lookahead_window_tied_with_probes_is_pinned() {
    let workload = by_name("Uploader").unwrap();
    let stats = run_production(&workload, &replay_cfg(), tied_stream());
    // The burst's tail enters the window after the first probe of each
    // cycle was scheduled, so that probe fires before the arrival it ties
    // with, retires the idle worker and plans a pre-restore. Every later
    // arrival was in the window long before the event it ties with and
    // goes first: the last one takes the empty slot from its pre-restore.
    let expected = "ProductionStats { invocations: 210012, mean_latency_us: 737461.3658843737, \
         p50_latency_us: 438080.04719380167, p99_latency_us: 4771810.418749973, \
         max_latency_us: 10818964.490883261, cold_starts: 1, restores: 161, checkpoints: 1, \
         checkpoint_ms_total: 83.0, restore_ms_total: 2084.999999999994, \
         snapshot_mb_total: 52.1875, restore_faults: 35, provision_us_total: 19629070.0, \
         provisioning: ProvisionStats { pre_restores_issued: 155, pre_restores_used: 2, \
         pre_restores_wasted: 153, keepalive_byte_s: 1017839615014.9939 }, \
         storage: StorageStats { cache_hits: 0, cache_misses: 0, cache_admits: 0, \
         cache_evictions: 0, cache_rejects: 0, cache_hit_bytes: 0, cache_miss_bytes: 0, \
         cache_evicted_bytes: 0, wire_bytes_downloaded: 0, wire_bytes_uploaded: 0, \
         compress_us: 0.0, decompress_us: 0.0, composed_prefetches: 0, \
         composed_bytes_saved: 0 }, end_time: SimTime(1291000004), \
         peak_pending_events: 65536 }";
    assert_eq!(format!("{stats:?}"), expected);
}

/// `n` requests `gap` apart on one worker that never retires by count.
fn closed_loop(bench: &str, cfg: &RunConfig, n: u32, gap: SimDuration) -> RunResult {
    let mut cfg = cfg.with_invocations(n);
    cfg.request_gap = gap;
    let workload = by_name(bench).unwrap();
    run(
        &workload,
        &cfg,
        ArrivalSpec::ClosedLoop,
        TopologySpec::Single,
    )
    .unwrap()
}

/// The trace window with the closed loop's instants, `(k + 1) × gap`, and
/// no history before it.
fn even_trace(bench: &str, cfg: &RunConfig, n: u32, gap: SimDuration) -> RunResult {
    let arrivals = (1..=u64::from(n))
        .map(|k| SimTime::ZERO + gap * k)
        .collect();
    let trace = Trace::new(arrivals, gap * (u64::from(n) + 1));
    let workload = by_name(bench).unwrap();
    let cfg = cfg.with_invocations(0);
    run(
        &workload,
        &cfg,
        ArrivalSpec::Trace(&trace),
        TopologySpec::Single,
    )
    .unwrap()
}

#[test]
fn a_closed_loop_and_its_even_trace_serve_alike() {
    // The eviction rate exceeds the request count, so the closed loop never
    // retires a worker by count and the two sources differ only in how
    // their arrivals reach the kernel. Gaps below and above the idle
    // timeout. The predictive arm's probes, pre-restores and expiries
    // never tie with an arrival: arrivals fall on whole seconds, and those
    // events 1 or 2 µs past one.
    let n = 300;
    let timeout = SimDuration::from_secs(10);
    let reactive = RunConfig::paper(PolicyKind::RequestCentric, n + 1, 5)
        .with_variance(InputVariance::bimodal())
        .with_idle_timeout(timeout);
    let predictive = reactive.with_provision(ProvisionPolicy::predictive(ForecasterKind::Ewma));
    for bench in ["Hash", "Uploader"] {
        for cfg in [reactive, predictive] {
            for gap in [SimDuration::from_secs(2), SimDuration::from_secs(12)] {
                let a = closed_loop(bench, &cfg, n, gap);
                let b = even_trace(bench, &cfg, n, gap);
                let what = format!("{bench}, {}, gap {gap:?}", cfg.provision.label());
                assert_eq!(a.latencies_us.len(), n as usize, "{what}");
                assert_eq!(a.latencies_us, b.latencies_us, "{what}");
                assert_eq!(a.provisions, b.provisions, "{what}");
                assert_eq!(a.restore_ms, b.restore_ms, "{what}");
                assert_eq!(a.checkpoint_ms, b.checkpoint_ms, "{what}");
                assert_eq!(a.provisioning, b.provisioning, "{what}");
            }
        }
    }
}
