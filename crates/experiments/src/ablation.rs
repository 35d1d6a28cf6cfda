//! Ablation study: the design choices DESIGN.md §5 calls out, measured by
//! the *quality* they deliver (median end-to-end latency), not by runtime.
//!
//! Covers: snapshot-selection strategy (softmax vs greedy vs uniform),
//! the random-survivor fraction `γ`, pool capacity `C`, search bound `W`,
//! worker-lifetime misestimation (§6), fleet exploration amortization
//! (§5.3), input-aware partitioning (§6), the EWMA weight `α` (§6), and
//! the JIT mechanisms the runtime simulates (deoptimization, background
//! compilation).

use crate::sweep::{fields_table, Field, Rows, Value};
use crate::ExperimentContext;
use pronghorn_core::{PolicyConfig, PolicyKind, SelectionStrategy};
use pronghorn_jit::{Runtime, RuntimeProfile};
use pronghorn_metrics::Quantiles;
use pronghorn_platform::{run_closed_loop, ArrivalSpec, RunConfig, TopologySpec};
use pronghorn_workloads::{by_name, InputVariance, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::num::NonZeroU32;

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which knob group this row belongs to.
    pub group: &'static str,
    /// Configuration label.
    pub label: String,
    /// Median end-to-end latency, µs.
    pub median_us: f64,
    /// Checkpoints taken (cost proxy).
    pub checkpoints: usize,
}

/// The full ablation study.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// All rows, grouped.
    pub rows: Vec<AblationRow>,
}

fn closed(
    ctx: &ExperimentContext,
    bench: &str,
    config: Option<PolicyConfig>,
    beta_estimate: Option<u32>,
) -> (f64, usize) {
    let workload = by_name(bench).expect("ablation benchmark exists");
    let mut cfg = RunConfig::paper(
        PolicyKind::RequestCentric,
        1,
        ctx.cell_seed(&["ablation", bench]),
    )
    .with_invocations(ctx.invocations.max(300));
    if let Some(pc) = config {
        cfg = cfg.with_policy_config(pc);
    }
    if let Some(beta) = beta_estimate {
        cfg = cfg.with_beta_estimate(beta);
    }
    let r = run_closed_loop(&workload, &cfg);
    (r.median_us(), r.checkpoint_ms.len())
}

/// Median request latency of one runtime of `bench`, with its profile
/// changed by `mutate`, serving as many paper-variance requests from a
/// cold start as a closed-loop row does. No policy runs and nothing is
/// checkpointed. Every arm draws the same inputs, from a generator of
/// their own.
fn jit(ctx: &ExperimentContext, bench: &str, mutate: fn(&mut RuntimeProfile)) -> (f64, usize) {
    let workload = by_name(bench).expect("ablation benchmark exists");
    let mut profile = workload.runtime_profile();
    mutate(&mut profile);
    let mut rng = SmallRng::seed_from_u64(ctx.cell_seed(&["ablation-jit", bench]));
    let mut inputs = SmallRng::seed_from_u64(ctx.cell_seed(&["ablation-jit-inputs", bench]));
    let (mut runtime, _) = Runtime::cold_start(profile, workload.method_profiles(), &mut rng);
    let latencies = (0..ctx.invocations.max(300))
        .map(|_| {
            let request = workload.generate(&mut inputs, InputVariance::paper());
            runtime.execute(&request, &mut rng).total_us()
        })
        .collect();
    let median = Quantiles::new(latencies).expect("at least one request");
    (median.median(), 0)
}

/// Runs the ablation study on one compute-bound benchmark (DFS).
pub fn run(ctx: &ExperimentContext) -> AblationResult {
    const BENCH: &str = "DFS";
    let base = PolicyConfig::paper_pypy();
    let mut rows = Vec::new();
    let mut push = |group: &'static str, label: String, (median_us, checkpoints): (f64, usize)| {
        rows.push(AblationRow {
            group,
            label,
            median_us,
            checkpoints,
        });
    };

    // Selection strategy (DESIGN.md ablation 2).
    for (label, strategy) in [
        ("softmax (paper)", SelectionStrategy::Softmax),
        ("greedy", SelectionStrategy::Greedy),
        ("uniform", SelectionStrategy::Uniform),
    ] {
        push(
            "selection",
            label.to_string(),
            closed(ctx, BENCH, Some(base.with_selection(strategy)), None),
        );
    }

    // Random-survivor fraction γ (ablation 3).
    for gamma in [0.0, 0.10, 0.50] {
        push(
            "gamma",
            format!("gamma = {gamma:.2}"),
            closed(ctx, BENCH, Some(base.with_eviction_fracs(0.4, gamma)), None),
        );
    }

    // Pool capacity C (§5.3's storage knob).
    for c in [2usize, 12, 24] {
        push(
            "capacity",
            format!("C = {c}"),
            closed(ctx, BENCH, Some(base.with_capacity(c)), None),
        );
    }

    // Search bound W.
    for w in [25u32, 100, 200] {
        push(
            "search-bound",
            format!("W = {w}"),
            closed(ctx, BENCH, Some(base.with_w(w)), None),
        );
    }

    // Lifetime misestimation (§6).
    for (label, beta) in [("accurate", None), ("overestimated 20x", Some(20))] {
        push("beta", label.to_string(), closed(ctx, BENCH, None, beta));
    }

    // Fleet amortization (§5.3).
    let workload = by_name(BENCH).expect("bench exists");
    let four = NonZeroU32::new(4).expect("4 is non-zero");
    for (label, explorers) in [("4 workers, 1 explorer", 1), ("4 workers, 0 explorers", 0)] {
        let cfg = RunConfig::paper(
            PolicyKind::RequestCentric,
            4,
            ctx.cell_seed(&["ablation-fleet", BENCH]),
        )
        .with_invocations(ctx.invocations.max(300));
        let fleet = TopologySpec::Fleet {
            workers: four,
            explorers,
        };
        let r = pronghorn_platform::run(&workload, &cfg, ArrivalSpec::ClosedLoop, fleet)
            .expect("ablation is valid");
        push(
            "fleet",
            label.to_string(),
            (r.median_us(), r.checkpoint_ms.len()),
        );
    }

    // Input-aware partitioning (§6) on bimodal traffic.
    let cfg = RunConfig::paper(
        PolicyKind::RequestCentric,
        1,
        ctx.cell_seed(&["ablation-partition", BENCH]),
    )
    .with_invocations(ctx.invocations.max(300))
    .with_variance(InputVariance::bimodal());
    let shared = run_closed_loop(&workload, &cfg);
    push(
        "partitioning",
        "shared deployment".to_string(),
        (shared.median_us(), shared.checkpoint_ms.len()),
    );
    let two = TopologySpec::Classes(NonZeroU32::new(2).expect("2 is non-zero"));
    let split = pronghorn_platform::run(&workload, &cfg, ArrivalSpec::ClosedLoop, two)
        .expect("ablation is valid");
    push(
        "partitioning",
        "2 input classes".to_string(),
        (split.median_us(), split.checkpoint_ms.len()),
    );

    // EWMA weight α (§6: the recency-weighting knob).
    for alpha in [0.05, 0.3, 0.9] {
        push(
            "alpha",
            format!("alpha = {alpha:.2}"),
            closed(ctx, BENCH, Some(base.with_alpha(alpha)), None),
        );
    }

    // JIT mechanisms, on Hash's runtime alone.
    let mechanisms: [(_, fn(&mut RuntimeProfile)); 3] = [
        ("Hash: baseline", |_| {}),
        ("Hash: deopts off", |p| p.deopt_prob = 0.0),
        ("Hash: inline compile", |p| {
            p.background_compile = false;
            p.compile_interference = 0.0;
        }),
    ];
    for (label, mutate) in mechanisms {
        push("jit", label.to_string(), jit(ctx, "Hash", mutate));
    }

    AblationResult { rows }
}

impl Rows for AblationResult {
    /// One row per configuration.
    fn rows(&self) -> Vec<Vec<Field>> {
        self.rows
            .iter()
            .map(|r| {
                vec![
                    ("group", Value::Str(r.group)),
                    ("label", Value::Label(r.label.clone())),
                    ("median_us", Value::Float(r.median_us, 1)),
                    ("checkpoints", Value::Uint(r.checkpoints as u64)),
                ]
            })
            .collect()
    }

    /// Printed table.
    fn render(&self) -> String {
        format!(
            "Ablation study (request-centric policy on DFS, eviction rate 1; the jit rows run Hash's runtime alone)\n\n{}",
            fields_table(&self.rows())
        )
    }
}

impl AblationResult {
    /// Rows of one group.
    pub fn group(&self, name: &str) -> Vec<&AblationRow> {
        self.rows.iter().filter(|r| r.group == name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_covers_every_design_choice() {
        let ctx = ExperimentContext {
            invocations: 300,
            ..ExperimentContext::quick()
        };
        let result = run(&ctx);
        for group in [
            "selection",
            "gamma",
            "capacity",
            "search-bound",
            "beta",
            "fleet",
            "partitioning",
            "alpha",
            "jit",
        ] {
            assert!(result.group(group).len() >= 2, "group {group} missing rows");
        }
        // Uniform selection must be clearly worse than the paper's softmax.
        let sel = result.group("selection");
        let softmax = sel[0].median_us;
        let uniform = sel[2].median_us;
        assert!(
            uniform > softmax * 1.1,
            "uniform {uniform} vs softmax {softmax}"
        );
        // Zero explorers (no checkpoints) must be worse than one explorer.
        let fleet = result.group("fleet");
        assert!(fleet[1].median_us > fleet[0].median_us);
        assert_eq!(fleet[1].checkpoints, 0);
        // The JIT rows run a bare runtime: three mechanisms, no snapshots.
        let jit = result.group("jit");
        assert_eq!(jit.len(), 3);
        assert!(jit.iter().all(|r| r.checkpoints == 0 && r.median_us > 0.0));
        let text = result.render();
        assert!(text.contains("Ablation study"));
    }
}
