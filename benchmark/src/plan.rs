//! The four benchmark workloads and their set-up: which cells run, under
//! which [`RunConfig`], with which seed.
//!
//! Every cell seed is derived from the benchmark seed with
//! [`ExperimentContext::cell_seed`], so the program under test receives
//! only generated configs and arrival streams. The `paper-grid` labels
//! are the ones `run_grid` uses, so at the repository's `--quick` scale
//! (150 invocations) a `paper-grid` repetition replays exactly the cells
//! of `experiments summary --quick --seed <seed>`.

use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_core::PolicyKind;
use pronghorn_experiments::grid::{PAPER_POLICIES, PAPER_RATES};
use pronghorn_experiments::ExperimentContext;
use pronghorn_platform::{
    ClusterSpec, ForecasterKind, KernelKind, ProvisionPolicy, RestoreStrategy, RoutingPolicy,
    RunConfig, StoragePolicy,
};
use pronghorn_sim::SimDuration;
use pronghorn_traces::{ProductionTraceSpec, TraceSpec};
use pronghorn_workloads::{by_name, SpecWorkload};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The paper's Fig 4+5 closed-loop grid under `RunConfig::paper`.
    PaperGrid,
    /// Request-centric closed loop at rate 1 with delta chains,
    /// record-prefetch restores and the full storage tier.
    RestoreChain,
    /// The closed loop on 4- and 8-node clusters under both routings.
    ClusterFleet,
    /// A streamed, bursty production replay with predictive provisioning.
    ProductionReplay,
}

impl Scenario {
    /// Every workload, in report order.
    pub const ALL: [Scenario; 4] = [
        Scenario::PaperGrid,
        Scenario::RestoreChain,
        Scenario::ClusterFleet,
        Scenario::ProductionReplay,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::PaperGrid => "paper-grid",
            Scenario::RestoreChain => "restore-chain",
            Scenario::ClusterFleet => "cluster-fleet",
            Scenario::ProductionReplay => "production-replay",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// How much work one repetition does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Benchmarks of the closed-loop and cluster workloads.
    pub benches: &'static [&'static str],
    /// Invocations per `paper-grid` cell.
    pub grid_invocations: u32,
    /// Invocations per `restore-chain` cell.
    pub chain_invocations: u32,
    /// Invocations per `cluster-fleet` cell.
    pub cluster_invocations: u32,
    /// Simulated hours of the `production-replay` stream.
    pub production_hours: f64,
}

/// The 13 benchmarks of Figures 4 and 5, in figure order (pinned to the
/// experiment tables by a test).
const EVALUATION: [&str; 13] = [
    "BFS",
    "DFS",
    "DynamicHTML",
    "MST",
    "PageRank",
    "Compression",
    "Uploader",
    "Thumbnailer",
    "Video",
    "MatrixMult",
    "Hash",
    "HTMLRendering",
    "WordCount",
];

impl Scale {
    /// The measured scale. Sized so one repetition takes 1–2 s of host
    /// time on a 2-vCPU x86-64 VM, which gives a 22 s run 12–18
    /// repetitions to take a median over.
    pub const FULL: Scale = Scale {
        benches: &EVALUATION,
        grid_invocations: 150,
        chain_invocations: 300,
        cluster_invocations: 300,
        production_hours: 0.5,
    };

    /// A tiny scale for smoke tests (debug builds run the real benchmark
    /// kernels ~20× slower).
    pub const QUICK: Scale = Scale {
        benches: &["DFS", "Hash"],
        grid_invocations: 8,
        chain_invocations: 8,
        cluster_invocations: 8,
        production_hours: 0.0005,
    };
}

/// The benchmark `production-replay` streams: IO-bound, so `generate` is
/// cheap and the platform's own layers carry the host time.
pub const PRODUCTION_BENCH: &str = "Uploader";

/// Which public runner a cell goes through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Runner {
    /// `run_closed_loop`.
    ClosedLoop,
    /// `run_cluster`.
    Cluster,
    /// `run_production` over a stream of this spec, seeded from the
    /// cell's config seed.
    Production(ProductionTraceSpec),
}

/// One run of one benchmark under one config.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`Plan::workloads`].
    pub bench: usize,
    /// The config handed to the runner.
    pub cfg: RunConfig,
    /// The runner the cell goes through.
    pub runner: Runner,
}

impl Cell {
    /// Whether the cell's latencies count towards the `sim_*` metrics.
    pub fn request_centric(&self) -> bool {
        self.cfg.policy == PolicyKind::RequestCentric
    }
}

/// A workload, set up: the benchmark objects and the cells to run.
pub struct Plan {
    /// The workload this plan runs.
    pub scenario: Scenario,
    /// One constructed benchmark per distinct name the cells use.
    pub workloads: Vec<SpecWorkload>,
    /// The cells, in run order.
    pub cells: Vec<Cell>,
}

/// Sets up `scenario` for `seed`: constructs the benchmarks (each
/// construction calibrates its kernel), and derives every config.
///
/// # Panics
///
/// Panics if a benchmark name in `scale` is unknown; the tables are
/// static, so that is a bug in this file.
pub fn plan(scenario: Scenario, seed: u64, scale: &Scale) -> Plan {
    let ctx = ExperimentContext {
        seed,
        ..ExperimentContext::default()
    };
    let names: Vec<&str> = match scenario {
        Scenario::ProductionReplay => vec![PRODUCTION_BENCH],
        _ => scale.benches.to_vec(),
    };
    let workloads = names
        .iter()
        .map(|name| by_name(name).expect("benchmark tables are static"))
        .collect();
    let mut cells = Vec::new();
    for (bench, name) in names.iter().enumerate() {
        match scenario {
            Scenario::PaperGrid => {
                for rate in PAPER_RATES {
                    // The labels `run_grid` uses: policies share a seed.
                    let cell_seed = ctx.cell_seed(&[name, &rate.to_string()]);
                    for policy in PAPER_POLICIES {
                        cells.push(Cell {
                            bench,
                            cfg: RunConfig::paper(policy, rate, cell_seed)
                                .with_invocations(scale.grid_invocations),
                            runner: Runner::ClosedLoop,
                        });
                    }
                }
            }
            Scenario::RestoreChain => {
                let cell_seed = ctx.cell_seed(&["restore-chain", name]);
                let cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, cell_seed)
                    .with_invocations(scale.chain_invocations)
                    .with_delta(DeltaPolicy::Enabled { max_depth: 16 })
                    .with_restore(RestoreStrategy::RecordPrefetch)
                    .with_storage(
                        StoragePolicy::disabled()
                            .with_cache()
                            .with_compression()
                            .with_composed_prefetch(),
                    );
                cells.push(Cell {
                    bench,
                    cfg,
                    runner: Runner::ClosedLoop,
                });
            }
            Scenario::ClusterFleet => {
                for nodes in [4u32, 8] {
                    // The labels `cluster-ablation` uses: routings share a
                    // seed.
                    let cell_seed = ctx.cell_seed(&["cluster", name, &nodes.to_string()]);
                    for routing in RoutingPolicy::ALL {
                        let mut cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, cell_seed)
                            .with_invocations(scale.cluster_invocations)
                            .with_cluster(
                                ClusterSpec::new(nodes)
                                    .with_capacity(2)
                                    .with_routing(routing),
                            );
                        cfg.request_gap = SimDuration::from_millis(1);
                        cells.push(Cell {
                            bench,
                            cfg,
                            runner: Runner::Cluster,
                        });
                    }
                }
            }
            Scenario::ProductionReplay => {
                let cell_seed = ctx.cell_seed(&["production", name]);
                // Checkpointing stops after W + 100 invocations (§5.3). Left
                // on, the checkpoint count ranges 2–21 between seeds and the
                // pooled snapshots make peak RSS differ by 10%.
                let cfg = RunConfig::paper(PolicyKind::RequestCentric, 20, cell_seed)
                    .with_kernel(KernelKind::TimerWheel)
                    .with_restore(RestoreStrategy::RecordPrefetch)
                    .with_provision(ProvisionPolicy::predictive(ForecasterKind::Ewma))
                    .with_idle_timeout(SimDuration::from_secs(30))
                    .with_checkpoint_stop(200);
                let spec = TraceSpec::production(scale.production_hours, 0.99)
                    .with_burst(0.25, SimDuration::from_secs(600));
                cells.push(Cell {
                    bench,
                    cfg,
                    runner: Runner::Production(spec),
                });
            }
        }
    }
    Plan {
        scenario,
        workloads,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_experiments::fig45::{FIG4_BENCHMARKS, FIG5_BENCHMARKS};

    #[test]
    fn names_round_trip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("nope"), None);
    }

    #[test]
    fn evaluation_list_matches_the_figures() {
        let figures: Vec<&str> = FIG4_BENCHMARKS
            .iter()
            .chain(FIG5_BENCHMARKS.iter())
            .copied()
            .collect();
        assert_eq!(EVALUATION.to_vec(), figures);
    }

    #[test]
    fn full_scale_cell_counts() {
        let cells = |s| plan(s, 7, &Scale::FULL).cells.len();
        assert_eq!(cells(Scenario::PaperGrid), 13 * 3 * 3);
        assert_eq!(cells(Scenario::RestoreChain), 13);
        assert_eq!(cells(Scenario::ClusterFleet), 13 * 2 * 2);
        assert_eq!(cells(Scenario::ProductionReplay), 1);
    }

    #[test]
    fn grid_policies_share_a_seed_and_seeds_follow_the_argument() {
        let a = plan(Scenario::PaperGrid, 1, &Scale::QUICK);
        assert_eq!(a.cells[0].cfg.seed, a.cells[2].cfg.seed);
        assert_ne!(a.cells[0].cfg.seed, a.cells[3].cfg.seed);
        let b = plan(Scenario::PaperGrid, 2, &Scale::QUICK);
        assert_ne!(a.cells[0].cfg.seed, b.cells[0].cfg.seed);
    }
}
