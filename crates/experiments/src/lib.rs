//! The experiment harness: one module per table and figure of the paper.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig1`] | Figure 1: JIT warm-up curves (DynamicHTML on PyPy, HTMLRendering on the JVM), premature vs ideal snapshot points |
//! | [`table1`] | Table 1: Java latency speedups vs request #1 at requests 200/400/600/800 |
//! | [`grid`] + [`fig45`] | Figures 4–5: latency CDFs, 13 benchmarks × 3 policies × 3 eviction rates |
//! | [`fig6`] | Figure 6: trace-driven CDFs at popularity percentiles 50/65/75 |
//! | [`table4`] | Table 4: policy convergence requests, checkpoint/restore times, snapshot sizes |
//! | [`table5`] | Table 5: maximum storage and network use vs the state of the art |
//! | [`fig7`] | Figure 7: per-operation orchestrator overheads vs the baseline |
//! | [`summary`] | §5.2's headline numbers: per-rate improvement counts and geometric means |
//! | [`ablation`] | the design-choice ablation study (selection strategy, γ, C, W, β misestimation, fleet amortization, input partitioning) |
//! | [`restore_ablation`] | the restore-strategy ablation: eager vs lazy vs REAP-style record-&-prefetch |
//! | [`delta_ablation`] | the delta-checkpointing ablation: full snapshots vs page-delta chains at consolidation depths 4 and 16 |
//! | [`cluster_ablation`] | the cluster ablation: {1, 4, 8} nodes × hash vs load-aware gateway routing (`BENCH_cluster.json`) |
//! | [`provision_ablation`] | the predictive-provisioning ablation: reactive vs sliding-window/EWMA/MPC pre-restore on sparse bursty traces (`BENCH_provision.json`) |
//! | [`storage_ablation`] | the tiered-storage ablation: flat store vs SSD cache vs compression vs composed-chain prefetch (`BENCH_storage.json`) |
//! | [`sweep`] | the one harness under the grid and the restore, delta, cluster, provision and storage ablations: a task-ordered worker pool, the generic benchmarks × axis × arms [`sweep::Ablation`] with paired seeds, and the field lists ([`sweep::Rows`] per paper table and figure, [`sweep::Columns`] per ablation) that write every CSV, `BENCH_*.json` arm and printed table |
//! | [`bench_report`] | the shared `BENCH_*.json` schema and `BENCH_grid.json` |
//!
//! Each module exposes a `run(ctx)` returning a structured result. A
//! paper table or figure implements [`sweep::Rows`]: one list of named
//! values per CSV line, printed by `render()` as a table of the same
//! columns and written by `to_csv()`. The five extension ablations build
//! their CSV, `BENCH_*.json` arms and printed table from their
//! [`sweep::Columns`] lists. Every writer returns a `results/` document
//! as a string; the `experiments` binary's one experiment list names
//! each command and the files it writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod bench_report;
pub mod cluster_ablation;
pub mod delta_ablation;
pub mod fig1;
pub mod fig45;
pub mod fig6;
pub mod fig7;
pub mod grid;
pub mod provision_ablation;
pub mod render;
pub mod restore_ablation;
pub mod storage_ablation;
pub mod summary;
pub mod sweep;
pub mod table1;
pub mod table4;
pub mod table5;

/// Shared experiment context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentContext {
    /// Master seed; every cell derives its own seed from it.
    pub seed: u64,
    /// Invocations per closed-loop cell (paper: 500).
    pub invocations: u32,
    /// Worker threads for the grid runner.
    pub threads: usize,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext {
            seed: 0x9e37_79b9,
            invocations: 500,
            threads: 8,
        }
    }
}

impl ExperimentContext {
    /// A reduced-scale context for tests and smoke runs.
    pub fn quick() -> Self {
        ExperimentContext {
            seed: 0x9e37_79b9,
            invocations: 150,
            threads: 4,
        }
    }

    /// The worker-thread count the grid runners actually use: the
    /// requested count, capped at the machine's available parallelism (1
    /// when the platform does not expose it). Zero is invalid — the CLI
    /// rejects it with a usage error, and a library caller that forces it
    /// gets a loud panic instead of a grid that silently runs nothing.
    ///
    /// Thread count never affects results: every cell derives its own
    /// seed and [`crate::sweep::sweep`] returns results in task order.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn effective_threads(&self) -> usize {
        assert!(self.threads >= 1, "threads must be >= 1 (got 0)");
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.threads.min(hardware)
    }

    /// Why the requested thread count was reduced, if it was — surfaced
    /// in the run banner so a capped grid is visible rather than silent.
    pub fn thread_cap_reason(&self) -> Option<String> {
        let effective = self.effective_threads();
        (effective < self.threads).then(|| {
            format!(
                "requested {} worker threads, capped at {} (available parallelism)",
                self.threads, effective
            )
        })
    }

    /// Derives a per-cell seed from labels.
    pub fn cell_seed(&self, labels: &[&str]) -> u64 {
        let mut h = pronghorn_sim::hash::Fnv1a::new();
        h.write_u64(self.seed);
        for label in labels {
            h.write(label.as_bytes());
            h.write(b"/");
        }
        pronghorn_sim::hash::mix64(h.finish())
    }
}
