//! Ablation study: the design choices DESIGN.md §5 calls out, measured by
//! the *quality* they deliver (median end-to-end latency), not by runtime.
//!
//! Covers: snapshot-selection strategy (softmax vs greedy vs uniform),
//! the random-survivor fraction `γ`, pool capacity `C`, search bound `W`,
//! worker-lifetime misestimation (§6), fleet exploration amortization
//! (§5.3), and input-aware partitioning (§6).

use crate::render::write_results_file;
use crate::ExperimentContext;
use pronghorn_core::{PolicyConfig, PolicyKind, SelectionStrategy};
use pronghorn_platform::{run_closed_loop, ArrivalSpec, RunConfig, TopologySpec};
use pronghorn_workloads::{by_name, InputVariance};
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
    push(
        "beta",
        "accurate".to_string(),
        closed(ctx, BENCH, None, None),
    );
    push(
        "beta",
        "overestimated 20x".to_string(),
        closed(ctx, BENCH, None, Some(20)),
    );

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

    AblationResult { rows }
}

impl AblationResult {
    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut table = pronghorn_metrics::Table::new(vec![
            "group",
            "configuration",
            "median (µs)",
            "checkpoints",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.group.to_string(),
                r.label.clone(),
                format!("{:.0}", r.median_us),
                r.checkpoints.to_string(),
            ]);
        }
        format!(
            "Ablation study (request-centric policy on DFS, eviction rate 1)\n\n{}",
            table.render(pronghorn_metrics::TableStyle::Plain)
        )
    }

    /// CSV form.
    pub fn to_csv(&self) -> String {
        let mut table =
            pronghorn_metrics::Table::new(vec!["group", "label", "median_us", "checkpoints"]);
        for r in &self.rows {
            table.row(vec![
                r.group.to_string(),
                r.label.clone(),
                format!("{:.1}", r.median_us),
                r.checkpoints.to_string(),
            ]);
        }
        table.to_csv()
    }

    /// Writes `results/ablations.csv`.
    pub fn save(&self) -> std::io::Result<std::path::PathBuf> {
        write_results_file("ablations.csv", &self.to_csv())
    }

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
        let text = result.render();
        assert!(text.contains("Ablation study"));
    }
}
