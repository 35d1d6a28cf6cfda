//! Results of one experiment run.

use pronghorn_checkpoint::CodecStats;
use pronghorn_cluster::LocalityStats;
use pronghorn_core::{OverheadTotals, PolicyKind};
use pronghorn_forecast::ProvisionStats;
use pronghorn_metrics::{convergence_request, Cdf, ConvergenceCriteria, Quantiles};
use pronghorn_restore::{RestoreInfo, RestoreStrategy};
use pronghorn_store::{ChainStats, StorageStats, StoreStats};

/// How a worker was provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvisionKind {
    /// Fresh runtime boot.
    Cold,
    /// Restored from a snapshot taken at the contained request number.
    Restored(u32),
}

/// Per-node counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeBreakdown {
    /// Node index: on the ring for a cluster, else the deployment's index.
    pub node: u32,
    /// Requests served on this node.
    pub served: u64,
    /// Requests served here although another node was the ring owner.
    pub spillovers: u64,
    /// Workers cold-booted on this node.
    pub cold_starts: u64,
    /// Workers restored from a snapshot on this node.
    pub restores: u64,
    /// Restores served from a node-resident blob.
    pub local_hits: u64,
    /// Restores that fetched their blob from a peer node.
    pub remote_misses: u64,
    /// Total queueing delay added to client latencies on this node (µs).
    pub queue_delay_us: f64,
    /// Largest number of concurrently live workers (≤ the node's slots).
    pub peak_workers: u32,
}

/// Everything measured during one run. With a trace, every measurement —
/// latencies, provisions, checkpoints, restores, provisioning, node,
/// locality and codec counters, and the orchestrator's accounting
/// (overheads, store, chain and storage counters) — covers the measured
/// window only; the store's gauges and the pool's peak start from what
/// the history left.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub workload: String,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Eviction rate (requests per worker).
    pub eviction_rate: u32,
    /// End-to-end latency of every request, µs, in arrival order.
    pub latencies_us: Vec<f64>,
    /// Orchestrator overhead decomposition (Figure 7).
    pub overheads: OverheadTotals,
    /// Object-store accounting at the end of the run.
    pub store_stats: StoreStats,
    /// Workers provisioned, in order.
    pub provisions: Vec<ProvisionKind>,
    /// Checkpoint engine downtimes, ms (Table 4).
    pub checkpoint_ms: Vec<f64>,
    /// Restore costs, ms (Table 4).
    pub restore_ms: Vec<f64>,
    /// Nominal size of every snapshot taken, MB (Table 4).
    pub snapshot_mb: Vec<f64>,
    /// Request number of every snapshot taken, in order.
    pub snapshot_requests: Vec<u32>,
    /// Total provisioning time spent off the critical path, µs.
    pub provision_us: f64,
    /// Encode-path performance counters (real wall-clock, observational
    /// only — never feeds back into simulated behavior).
    pub codec: CodecStats,
    /// Restore strategy the run executed under.
    pub restore_strategy: RestoreStrategy,
    /// Per-restore fault/prefetch stats, one entry per restored worker
    /// (cold boots contribute none), in retirement order.
    pub restore_infos: Vec<RestoreInfo>,
    /// Delta-chain accounting (roots, deltas, consolidations, composed
    /// restores); all-zero when delta checkpointing is disabled.
    pub chain: ChainStats,
    /// Predictive pre-restore accounting; all-zero when provisioning is
    /// disabled.
    pub provisioning: ProvisionStats,
    /// Storage-hierarchy accounting (SSD cache, wire compression,
    /// composed prefetch); all-zero under the flat store (a disabled
    /// storage policy), whose tier reports no counters.
    pub storage: StorageStats,
    /// Per-node counters, indexed by node.
    pub nodes: Vec<NodeBreakdown>,
    /// Locality counters; outside a cluster every restore is a local hit.
    pub locality: LocalityStats,
}

impl RunResult {
    /// Median end-to-end latency, µs.
    pub fn median_us(&self) -> f64 {
        Quantiles::new(self.latencies_us.clone())
            .map(|q| q.median())
            .unwrap_or(f64::NAN)
    }

    /// Arbitrary percentile of the latency distribution, µs.
    pub fn percentile_us(&self, p: f64) -> f64 {
        Quantiles::new(self.latencies_us.clone())
            .map(|q| q.percentile(p))
            .unwrap_or(f64::NAN)
    }

    /// Empirical CDF of the latencies (the Figure 4/5/6 curves).
    pub fn cdf(&self) -> Option<Cdf> {
        Cdf::new(self.latencies_us.clone())
    }

    /// Table 4's convergence request: first window-20 whose median is
    /// within 2% of the final value.
    pub fn convergence_request(&self) -> Option<usize> {
        convergence_request(&self.latencies_us, ConvergenceCriteria::default())
    }

    /// Number of cold starts.
    pub fn cold_starts(&self) -> usize {
        self.provisions
            .iter()
            .filter(|p| matches!(p, ProvisionKind::Cold))
            .count()
    }

    /// Number of snapshot restores.
    pub fn restores(&self) -> usize {
        self.provisions.len() - self.cold_starts()
    }

    /// Mean snapshot size, MB (0 when no snapshot was taken).
    pub fn mean_snapshot_mb(&self) -> f64 {
        if self.snapshot_mb.is_empty() {
            0.0
        } else {
            self.snapshot_mb.iter().sum::<f64>() / self.snapshot_mb.len() as f64
        }
    }

    /// Median end-to-end restore cost across restored workers, µs
    /// (up-front restore plus all fault service); NaN with no restores.
    pub fn median_restore_us(&self) -> f64 {
        Quantiles::new(
            self.restore_infos
                .iter()
                .map(RestoreInfo::total_restore_us)
                .collect(),
        )
        .map(|q| q.median())
        .unwrap_or(f64::NAN)
    }

    /// Total bytes moved from the store for restores (payloads, prefetch
    /// batches, and demand-fetched pages).
    pub fn restore_bytes(&self) -> u64 {
        self.restore_infos.iter().map(|i| i.bytes_transferred).sum()
    }

    /// Total first-touch page faults served across all restored workers.
    pub fn total_faults(&self) -> u64 {
        self.restore_infos.iter().map(|i| u64::from(i.faults)).sum()
    }

    /// Total pages brought in by batched manifest prefetches.
    pub fn prefetched_pages(&self) -> u64 {
        self.restore_infos
            .iter()
            .map(|i| u64::from(i.prefetched_pages))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(latencies: Vec<f64>) -> RunResult {
        RunResult {
            workload: "t".into(),
            policy: PolicyKind::Cold,
            eviction_rate: 1,
            latencies_us: latencies,
            overheads: OverheadTotals::default(),
            store_stats: StoreStats::default(),
            provisions: vec![ProvisionKind::Cold, ProvisionKind::Restored(5)],
            checkpoint_ms: vec![60.0, 70.0],
            restore_ms: vec![50.0],
            snapshot_mb: vec![10.0, 14.0],
            snapshot_requests: vec![1, 5],
            provision_us: 1000.0,
            codec: CodecStats::default(),
            restore_strategy: RestoreStrategy::Eager,
            restore_infos: vec![],
            chain: ChainStats::default(),
            provisioning: ProvisionStats::default(),
            storage: StorageStats::default(),
            nodes: Vec::new(),
            locality: LocalityStats::default(),
        }
    }

    #[test]
    fn medians_and_percentiles() {
        let r = result(vec![10.0, 20.0, 30.0]);
        assert_eq!(r.median_us(), 20.0);
        assert_eq!(r.percentile_us(100.0), 30.0);
        assert!(result(vec![]).median_us().is_nan());
    }

    #[test]
    fn provision_counters() {
        let r = result(vec![1.0]);
        assert_eq!(r.cold_starts(), 1);
        assert_eq!(r.restores(), 1);
    }

    #[test]
    fn snapshot_size_mean() {
        assert_eq!(result(vec![1.0]).mean_snapshot_mb(), 12.0);
        let mut r = result(vec![1.0]);
        r.snapshot_mb.clear();
        assert_eq!(r.mean_snapshot_mb(), 0.0);
    }

    #[test]
    fn restore_info_aggregates() {
        let mut r = result(vec![1.0]);
        assert!(r.median_restore_us().is_nan());
        assert_eq!(r.restore_bytes(), 0);
        r.restore_infos = vec![
            RestoreInfo::eager(40_000.0, 1_000),
            RestoreInfo {
                strategy: RestoreStrategy::Lazy,
                faults: 3,
                prefetched_pages: 2,
                restore_us: 9_000.0,
                fault_us: 1_000.0,
                decompress_us: 0.0,
                bytes_transferred: 500,
            },
        ];
        assert_eq!(r.median_restore_us(), (40_000.0 + 10_000.0) / 2.0);
        assert_eq!(r.restore_bytes(), 1_500);
        assert_eq!(r.total_faults(), 3);
        assert_eq!(r.prefetched_pages(), 2);
    }

    #[test]
    fn cdf_and_convergence_available() {
        let mut lat = vec![100.0; 30];
        lat.extend(vec![50.0; 30]);
        let r = result(lat);
        assert!(r.cdf().is_some());
        assert!(r.convergence_request().is_some());
    }
}
