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

use crate::bench_report::json_object;
use crate::sweep::{fields_table, paper_benchmarks, Ablation, Cell, Columns, Field, Value};
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
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

impl ClusterAblation {
    /// Benchmarks where load-aware routing's p99 latency (queueing
    /// included) beats pure hashing's at `nodes`, as `(wins, total)`.
    pub fn load_aware_p99_wins(&self, nodes: u32) -> (usize, usize) {
        self.tally(|w| {
            let p99 = |routing| {
                let cell = self.cell(w, nodes, routing)?;
                Some(cell.result.result.percentile_us(99.0))
            };
            Some(p99(RoutingPolicy::LoadAware)? < p99(RoutingPolicy::Hash)?)
        })
    }

    /// Printed form: per-arm pooled stats, then the headline
    /// routing comparison.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Cluster ablation (request-centric policy, {CONTENTION_GAP_MS} ms gap, \
             capacity {NODE_CAPACITY}/node)\n\n{}\n",
            fields_table(&self.arm_rows())
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

    /// `BENCH_cluster.json`: per-arm locality hit rates, remote transfer
    /// bytes, per-node cold/hot-start breakdowns and the headline
    /// load-aware win counts.
    pub fn bench_json(&self) -> String {
        let mut report = self
            .bench_report("cluster")
            .config("request_gap_ms", CONTENTION_GAP_MS.to_string())
            .config("node_capacity", NODE_CAPACITY.to_string());
        let multi: Vec<u32> = self.axes().into_iter().filter(|&n| n > 1).collect();
        let wins: Vec<String> = multi
            .iter()
            .map(|&nodes| {
                let (wins, total) = self.load_aware_p99_wins(nodes);
                json_object(&[
                    ("nodes", Value::Uint(u64::from(nodes))),
                    ("wins", Value::Uint(wins as u64)),
                    ("benchmarks", Value::Uint(total as u64)),
                ])
            })
            .collect();
        report.section(
            "load_aware_p99_wins",
            format!("[\n    {}\n  ]", wins.join(",\n    ")),
        );
        report.render()
    }
}

/// One cell, or one routing at one node count pooled.
impl Columns<ClusterRunResult> for RoutingPolicy {
    const AXIS: Option<&'static str> = Some("nodes");
    const ARM: &'static str = "routing";
    const PER_AXIS: bool = true;

    fn arm_label(self) -> &'static str {
        self.label()
    }

    fn cell(_: &ClusterAblation, cell: &Cell<Self, ClusterRunResult>) -> Vec<Field> {
        let r = &cell.result;
        vec![
            ("served", Value::Uint(r.served())),
            ("spillovers", Value::Uint(r.spillovers())),
            (
                "cold_starts",
                Value::Uint(r.nodes.iter().map(|n| n.cold_starts).sum()),
            ),
            (
                "restores",
                Value::Uint(r.nodes.iter().map(|n| n.restores).sum()),
            ),
            ("local_hits", Value::Uint(r.locality.local_hits)),
            ("remote_misses", Value::Uint(r.locality.remote_misses)),
            ("locality_hit_rate", Value::Float(r.locality_hit_rate(), 3)),
            (
                "remote_transfer_bytes",
                Value::Uint(r.locality.remote_bytes),
            ),
            ("queue_delay_us", Value::Float(r.total_queue_delay_us(), 3)),
            ("median_latency_us", Value::Float(r.result.median_us(), 3)),
            (
                "p99_latency_us",
                Value::Float(r.result.percentile_us(99.0), 3),
            ),
        ]
    }

    fn pooled(_: &ClusterAblation, _: Self, cells: &[&Cell<Self, ClusterRunResult>]) -> Vec<Field> {
        let sum =
            |count: fn(&ClusterRunResult) -> u64| cells.iter().map(|c| count(&c.result)).sum();
        let local: u64 = sum(|r| r.locality.local_hits);
        let remote: u64 = sum(|r| r.locality.remote_misses);
        // Nothing restored counts as perfect locality.
        let hit_rate = if local + remote == 0 {
            1.0
        } else {
            local as f64 / (local + remote) as f64
        };
        let nodes = per_node(cells);
        let per_node: Vec<String> = nodes
            .iter()
            .enumerate()
            .map(|(node, &(cold, restores, served))| {
                json_object(&[
                    ("node", Value::Uint(node as u64)),
                    ("cold_starts", Value::Uint(cold)),
                    ("restores", Value::Uint(restores)),
                    ("served", Value::Uint(served)),
                ])
            })
            .collect();
        vec![
            ("benchmarks", Value::Uint(cells.len() as u64)),
            ("locality_hit_rate", Value::Float(hit_rate, 6)),
            (
                "remote_transfer_bytes",
                Value::Uint(sum(|r| r.locality.remote_bytes)),
            ),
            ("cold_starts", Value::Uint(nodes.iter().map(|n| n.0).sum())),
            ("restores", Value::Uint(nodes.iter().map(|n| n.1).sum())),
            ("spillovers", Value::Uint(sum(ClusterRunResult::spillovers))),
            (
                "queue_delay_us",
                Value::Float(
                    cells.iter().map(|c| c.result.total_queue_delay_us()).sum(),
                    1,
                ),
            ),
            ("per_node", Value::Raw(format!("[{}]", per_node.join(", ")))),
        ]
    }
}

/// Per-node (cold starts, restores, served) pooled across `cells`, all
/// at one node count, indexed by node.
fn per_node(cells: &[&Cell<RoutingPolicy, ClusterRunResult>]) -> Vec<(u64, u64, u64)> {
    let mut per_node = vec![(0, 0, 0); cells[0].axis as usize];
    for cell in cells {
        for n in &cell.result.nodes {
            let slot = &mut per_node[n.node as usize];
            slot.0 += n.cold_starts;
            slot.1 += n.restores;
            slot.2 += n.served;
        }
    }
    per_node
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
        assert_eq!(ablation.arm_rows().len(), 4);
        let pooled = |nodes, routing| -> Vec<_> {
            let cells: Vec<_> = ablation
                .arm_cells(routing)
                .filter(|c| c.axis == nodes)
                .collect();
            per_node(&cells)
        };
        assert_eq!(pooled(1, RoutingPolicy::Hash).len(), 1);
        assert_eq!(pooled(4, RoutingPolicy::Hash).len(), 4);
        for nodes in [1, 4] {
            for routing in RoutingPolicy::ALL {
                let served: u64 = pooled(nodes, routing).iter().map(|n| n.2).sum();
                assert_eq!(served, 3 * 120, "{nodes}x {}", routing.label());
            }
        }
    }
}
