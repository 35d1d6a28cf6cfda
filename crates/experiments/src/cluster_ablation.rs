//! The cluster ablation: node counts × gateway routing policies.
//!
//! Sweeps the 13 paper benchmarks across {1, 4, 8}-node clusters under
//! both gateway routing policies (pure consistent hashing vs hash-first
//! load-aware spillover), with a request gap far below the benchmarks'
//! service times so the ring owner actually saturates. Cells that differ
//! only in routing share a seed, so the comparison is paired like every
//! other grid in the harness.
//!
//! The claims under test:
//!
//! - consistent hashing pins each function to one node, so saturation
//!   shows up as queueing delay and the tail latency explodes, while
//!   locality stays perfect (every restore is a local hit);
//! - load-aware spillover spreads the same arrivals across the ring
//!   successors, collapsing the queueing tail at the price of remote
//!   snapshot transfers (Table 5's network model) on spilled restores —
//!   the hot-start-vs-transfer-bytes trade the cluster runner exists to
//!   measure;
//! - a 1-node cluster is routing-invariant: both arms replay the
//!   identical (byte-for-byte) single-node run.

use crate::bench_report::{BenchReport, JsonObj};
use crate::render::write_results_file;
use crate::sweep::{csv_f64, paper_benchmarks, Ablation};
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
use pronghorn_metrics::{Table, TableStyle};
use pronghorn_platform::{run_cluster, ClusterRunResult, ClusterSpec, RoutingPolicy, RunConfig};
use pronghorn_sim::SimDuration;

/// Cluster sizes the ablation sweeps.
pub const NODE_COUNTS: [u32; 3] = [1, 4, 8];

/// Worker slots per node. Two slots per node keep a single node
/// saturated at the contention gap while an 8-node cluster has headroom.
pub const NODE_CAPACITY: u32 = 2;

/// Request gap of the sweep (ms): far below every benchmark's service
/// time, so the ring owner saturates and routing actually matters.
pub const CONTENTION_GAP_MS: u64 = 1;

/// Eviction rate of the sweep: a worker per request maximizes restore
/// traffic, which is what the locality accounting measures.
const ABLATION_RATE: u32 = 1;

/// A completed cluster ablation: benchmarks × node counts (the axis) ×
/// [`RoutingPolicy::ALL`] (the arms).
pub type ClusterAblation = Ablation<RoutingPolicy, ClusterRunResult>;

/// Runs the full ablation: 13 benchmarks × [`NODE_COUNTS`] × both
/// routing policies.
pub fn run(ctx: &ExperimentContext) -> ClusterAblation {
    run_for(ctx, &paper_benchmarks(), &NODE_COUNTS)
}

/// Runs the ablation over an explicit benchmark and node-count set.
///
/// # Panics
///
/// Panics if a benchmark name is unknown — experiment tables are static
/// and must fail loudly.
pub fn run_for(
    ctx: &ExperimentContext,
    benchmarks: &[&str],
    node_counts: &[u32],
) -> ClusterAblation {
    Ablation::run(
        ctx,
        benchmarks,
        node_counts,
        &RoutingPolicy::ALL,
        |bench, nodes| ctx.cell_seed(&["cluster", bench, &nodes.to_string()]),
        |workload, nodes, routing, seed| {
            let mut cfg = RunConfig::paper(PolicyKind::RequestCentric, ABLATION_RATE, seed)
                .with_invocations(ctx.invocations)
                .with_cluster(
                    ClusterSpec::new(nodes)
                        .with_capacity(NODE_CAPACITY)
                        .with_routing(routing),
                );
            cfg.request_gap = SimDuration::from_millis(CONTENTION_GAP_MS);
            run_cluster(workload, &cfg)
        },
    )
}

/// Pooled per-arm (nodes × routing) aggregates.
#[derive(Debug, Clone)]
pub struct ClusterArmAggregate {
    /// Cluster size.
    pub nodes: u32,
    /// Routing policy.
    pub routing: RoutingPolicy,
    /// Cells pooled into this arm.
    pub cells: usize,
    /// Restores served from node-resident blobs, summed.
    pub local_hits: u64,
    /// Restores that fetched from a peer node, summed.
    pub remote_misses: u64,
    /// Nominal bytes moved between nodes, summed.
    pub remote_bytes: u64,
    /// Cold boots, summed.
    pub cold_starts: u64,
    /// Snapshot restores, summed.
    pub restores: u64,
    /// Requests served off their ring owner, summed.
    pub spillovers: u64,
    /// Queueing delay added to client latencies, summed (µs).
    pub queue_delay_us: f64,
    /// Per-node (cold starts, restores, served) pooled across cells,
    /// indexed by node.
    pub per_node: Vec<(u64, u64, u64)>,
}

impl ClusterArmAggregate {
    /// Pooled locality hit rate (1.0 when nothing restored).
    pub fn hit_rate(&self) -> f64 {
        let total = self.local_hits + self.remote_misses;
        if total == 0 {
            1.0
        } else {
            self.local_hits as f64 / total as f64
        }
    }
}

impl ClusterAblation {
    /// Benchmarks where load-aware routing's p99 latency (queueing
    /// included) beats pure hashing's at `nodes`, as `(wins, total)`.
    pub fn load_aware_p99_wins(&self, nodes: u32) -> (usize, usize) {
        let mut wins = 0;
        let mut total = 0;
        for w in self.workloads() {
            let (Some(hash), Some(aware)) = (
                self.cell(&w, nodes, RoutingPolicy::Hash),
                self.cell(&w, nodes, RoutingPolicy::LoadAware),
            ) else {
                continue;
            };
            total += 1;
            if aware.result.result.percentile_us(99.0) < hash.result.result.percentile_us(99.0) {
                wins += 1;
            }
        }
        (wins, total)
    }

    /// Pooled per-arm aggregates, in node-count-major, [`RoutingPolicy::ALL`]
    /// order.
    pub fn arm_aggregates(&self) -> Vec<ClusterArmAggregate> {
        let mut out = Vec::new();
        for nodes in self.axes() {
            for routing in RoutingPolicy::ALL {
                let cells: Vec<_> = self
                    .arm_cells(routing)
                    .filter(|c| c.axis == nodes)
                    .collect();
                if cells.is_empty() {
                    continue;
                }
                let mut per_node = vec![(0u64, 0u64, 0u64); nodes as usize];
                for cell in &cells {
                    for n in &cell.result.nodes {
                        let slot = &mut per_node[n.node as usize];
                        slot.0 += n.cold_starts;
                        slot.1 += n.restores;
                        slot.2 += n.served;
                    }
                }
                out.push(ClusterArmAggregate {
                    nodes,
                    routing,
                    cells: cells.len(),
                    local_hits: cells.iter().map(|c| c.result.locality.local_hits).sum(),
                    remote_misses: cells.iter().map(|c| c.result.locality.remote_misses).sum(),
                    remote_bytes: cells.iter().map(|c| c.result.locality.remote_bytes).sum(),
                    cold_starts: cells
                        .iter()
                        .map(|c| c.result.nodes.iter().map(|n| n.cold_starts).sum::<u64>())
                        .sum(),
                    restores: cells
                        .iter()
                        .map(|c| c.result.nodes.iter().map(|n| n.restores).sum::<u64>())
                        .sum(),
                    spillovers: cells.iter().map(|c| c.result.spillovers()).sum(),
                    queue_delay_us: cells.iter().map(|c| c.result.total_queue_delay_us()).sum(),
                    per_node,
                });
            }
        }
        out
    }

    /// Paper-style rendering: per-arm pooled stats, then the headline
    /// routing comparison.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "Nodes",
            "Routing",
            "Hit rate",
            "Remote",
            "Cold",
            "Restores",
            "Spillovers",
            "Queue delay",
        ]);
        for agg in self.arm_aggregates() {
            table.row(vec![
                agg.nodes.to_string(),
                agg.routing.label().to_string(),
                format!("{:.3}", agg.hit_rate()),
                format!("{:.1} MB", agg.remote_bytes as f64 / 1e6),
                agg.cold_starts.to_string(),
                agg.restores.to_string(),
                agg.spillovers.to_string(),
                format!("{:.1} ms", agg.queue_delay_us / 1e3),
            ]);
        }
        let mut out = format!(
            "Cluster ablation (request-centric policy, {CONTENTION_GAP_MS} ms gap, \
             capacity {NODE_CAPACITY}/node)\n\n{}\n",
            table.render(TableStyle::Plain)
        );
        for nodes in self.axes() {
            if nodes == 1 {
                continue;
            }
            let (wins, total) = self.load_aware_p99_wins(nodes);
            out.push_str(&format!(
                "{nodes} nodes: load-aware beats hash on p99 latency on {wins}/{total} benchmarks\n"
            ));
        }
        out
    }

    /// CSV form: one row per cell, in fixed benchmark × nodes × routing
    /// order (byte-identical across same-seed reruns).
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "workload",
            "nodes",
            "routing",
            "served",
            "spillovers",
            "cold_starts",
            "restores",
            "local_hits",
            "remote_misses",
            "locality_hit_rate",
            "remote_transfer_bytes",
            "queue_delay_us",
            "median_latency_us",
            "p99_latency_us",
        ]);
        for w in self.workloads() {
            for nodes in self.axes() {
                for routing in RoutingPolicy::ALL {
                    let Some(cell) = self.cell(&w, nodes, routing) else {
                        continue;
                    };
                    let r = &cell.result;
                    table.row(vec![
                        w.clone(),
                        nodes.to_string(),
                        routing.label().to_string(),
                        r.served().to_string(),
                        r.spillovers().to_string(),
                        r.nodes
                            .iter()
                            .map(|n| n.cold_starts)
                            .sum::<u64>()
                            .to_string(),
                        r.nodes.iter().map(|n| n.restores).sum::<u64>().to_string(),
                        r.locality.local_hits.to_string(),
                        r.locality.remote_misses.to_string(),
                        csv_f64(r.locality_hit_rate()),
                        r.locality.remote_bytes.to_string(),
                        csv_f64(r.total_queue_delay_us()),
                        csv_f64(r.result.median_us()),
                        csv_f64(r.result.percentile_us(99.0)),
                    ]);
                }
            }
        }
        table.to_csv()
    }

    /// Writes `results/cluster_ablation.csv`.
    pub fn save(&self) -> std::io::Result<std::path::PathBuf> {
        write_results_file("cluster_ablation.csv", &self.to_csv())
    }

    /// Writes `results/BENCH_cluster.json`: per-arm locality hit rates,
    /// remote transfer bytes, per-node cold/hot-start breakdowns and the
    /// headline load-aware win counts, in the shared [`BenchReport`]
    /// schema.
    pub fn save_bench_report(&self) -> std::io::Result<std::path::PathBuf> {
        let mut report = BenchReport::new("cluster")
            .config("request_gap_ms", CONTENTION_GAP_MS.to_string())
            .config("node_capacity", NODE_CAPACITY.to_string());
        for agg in self.arm_aggregates() {
            let per_node: Vec<String> = agg
                .per_node
                .iter()
                .enumerate()
                .map(|(node, (cold, restores, served))| {
                    JsonObj::new()
                        .uint("node", node as u64)
                        .uint("cold_starts", *cold)
                        .uint("restores", *restores)
                        .uint("served", *served)
                        .render()
                })
                .collect();
            report.arm(
                JsonObj::new()
                    .uint("nodes", u64::from(agg.nodes))
                    .str("routing", agg.routing.label())
                    .uint("benchmarks", agg.cells as u64)
                    .float("locality_hit_rate", agg.hit_rate(), 6)
                    .uint("remote_transfer_bytes", agg.remote_bytes)
                    .uint("cold_starts", agg.cold_starts)
                    .uint("restores", agg.restores)
                    .uint("spillovers", agg.spillovers)
                    .float("queue_delay_us", agg.queue_delay_us, 1)
                    .raw("per_node", format!("[{}]", per_node.join(", "))),
            );
        }
        let multi: Vec<u32> = self.axes().into_iter().filter(|&n| n > 1).collect();
        let wins: Vec<String> = multi
            .iter()
            .map(|&nodes| {
                let (wins, total) = self.load_aware_p99_wins(nodes);
                JsonObj::new()
                    .uint("nodes", u64::from(nodes))
                    .uint("wins", wins as u64)
                    .uint("benchmarks", total as u64)
                    .render()
            })
            .collect();
        report.section(
            "load_aware_p99_wins",
            format!("[\n    {}\n  ]", wins.join(",\n    ")),
        );
        report.save("BENCH_cluster.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ablation() -> ClusterAblation {
        let ctx = ExperimentContext {
            invocations: 120,
            ..ExperimentContext::quick()
        };
        run_for(&ctx, &["Hash", "DFS", "MatrixMult"], &[1, 4])
    }

    #[test]
    fn ablation_runs_every_arm_per_cell() {
        let ablation = quick_ablation();
        assert_eq!(ablation.cells.len(), 3 * 2 * 2);
        assert_eq!(ablation.workloads(), vec!["DFS", "MatrixMult", "Hash"]);
        assert_eq!(ablation.axes(), vec![1, 4]);
        for cell in &ablation.cells {
            assert_eq!(cell.result.served(), 120);
        }
    }

    #[test]
    fn single_node_arms_are_routing_invariant() {
        // With one node there is nowhere to spill: both routing arms
        // replay the identical run.
        let ablation = quick_ablation();
        for w in ablation.workloads() {
            let hash = ablation.cell(&w, 1, RoutingPolicy::Hash).unwrap();
            let aware = ablation.cell(&w, 1, RoutingPolicy::LoadAware).unwrap();
            assert_eq!(
                hash.result.result.latencies_us, aware.result.result.latencies_us,
                "{w}"
            );
            assert_eq!(hash.result.locality, aware.result.locality);
            assert_eq!(hash.result.locality.remote_misses, 0);
        }
    }

    #[test]
    fn hash_routing_keeps_perfect_locality_but_queues() {
        let ablation = quick_ablation();
        for w in ablation.workloads() {
            let hash = &ablation.cell(&w, 4, RoutingPolicy::Hash).unwrap().result;
            assert_eq!(hash.locality.remote_bytes, 0, "{w}");
            assert_eq!(hash.spillovers(), 0, "{w}");
            assert!(hash.total_queue_delay_us() > 0.0, "{w}");
        }
    }

    #[test]
    fn load_aware_wins_the_tail_and_pays_transfer_bytes() {
        let ablation = quick_ablation();
        let (wins, total) = ablation.load_aware_p99_wins(4);
        assert_eq!(total, 3);
        assert!(wins >= 1, "load-aware won the p99 on {wins}/{total}");
        // The win is bought with cross-node snapshot transfers somewhere.
        let remote: u64 = ablation
            .cells
            .iter()
            .filter(|c| c.arm == RoutingPolicy::LoadAware && c.axis == 4)
            .map(|c| c.result.locality.remote_bytes)
            .sum();
        assert!(remote > 0, "no remote transfer despite spillover");
        let spill: u64 = ablation
            .cells
            .iter()
            .filter(|c| c.arm == RoutingPolicy::LoadAware && c.axis == 4)
            .map(|c| c.result.spillovers())
            .sum();
        assert!(spill > 0);
    }

    #[test]
    fn csv_is_deterministic_and_shaped() {
        let ablation = quick_ablation();
        let csv = ablation.to_csv();
        assert_eq!(csv.lines().count(), 1 + 3 * 2 * 2);
        assert!(csv.starts_with("workload,nodes,routing,"));
        let again = quick_ablation();
        assert_eq!(csv, again.to_csv());
    }

    #[test]
    fn bench_report_is_valid_shaped_json() {
        // Hand-rolled JSON: pin the keys the CI schema check greps for.
        let ablation = quick_ablation();
        let aggs = ablation.arm_aggregates();
        assert_eq!(aggs.len(), 4);
        assert_eq!(aggs[0].per_node.len(), 1);
        assert_eq!(aggs[2].per_node.len(), 4);
        for agg in &aggs {
            let served: u64 = agg.per_node.iter().map(|n| n.2).sum();
            assert_eq!(served, 3 * 120, "{}x {}", agg.nodes, agg.routing.label());
        }
    }
}
