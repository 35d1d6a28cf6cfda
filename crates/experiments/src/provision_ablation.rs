//! The predictive-provisioning ablation: reactive eviction vs
//! forecast-driven pre-restore.
//!
//! Sweeps the 13 paper benchmarks over a sparse, bursty production trace
//! under the request-centric policy with record-&-prefetch restores, once
//! per provisioning arm: reactive (pre-restore disabled — today's
//! behavior), and the three [`ForecasterKind`] predictive arms
//! (sliding-window, EWMA, MPC). Cells that differ only in arm share a
//! seed, so the arrival stream — and hence the comparison — is paired.
//!
//! The trace is deliberately sparse (`rate_scale` pulls the cell's mean
//! rate down to [`TARGET_RATE_PER_SEC`]) and bursty
//! ([`BURST_ON_FRAC`]/[`BURST_PERIOD_S`]): inter-arrival gaps straddle
//! the idle timeout, so the reactive arm keeps evicting workers and
//! paying the restore — plus, on IO-bound benchmarks, the stale-IO
//! penalty — on the critical path of the next request. The predictive
//! arms re-warm the worker off-path when the forecast says the next
//! arrival lands inside the horizon; MPC additionally declines plans
//! whose keep-alive memory cost outweighs the predicted latency win, so
//! it trades a few p99 wins for far fewer wasted byte-seconds on heavy
//! images.
//!
//! The claim under test (ROADMAP item 4): on bursty production traffic,
//! at least one predictive arm beats reactive request-centric on p99
//! latency or on critical-path provisioning fraction for most
//! benchmarks, including the IO-bound Uploader regression pinned by the
//! closed-loop tests.

use crate::bench_report::{BenchReport, JsonObj};
use crate::render::write_results_file;
use crate::sweep::{csv_f64, paper_benchmarks, Ablation};
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
use pronghorn_metrics::{Table, TableStyle};
use pronghorn_platform::{
    run_production, ForecasterKind, ProductionStats, ProvisionPolicy, RestoreStrategy, RunConfig,
};
use pronghorn_sim::{RngFactory, SimDuration};
use pronghorn_traces::TraceSpec;

/// Mean arrival rate the trace is scaled to, requests/second. One
/// request every 90 s on average puts on-phase gaps (~40 s) above the
/// idle timeout and off-phase gaps (~160 s) beyond the MPC threshold for
/// mid-sized images — the regime where the arms actually differ.
pub const TARGET_RATE_PER_SEC: f64 = 1.0 / 90.0;

/// Fraction of each burst period spent in the on phase.
pub const BURST_ON_FRAC: f64 = 0.25;

/// Burst period, seconds.
pub const BURST_PERIOD_S: u64 = 600;

/// Idle keep-alive of the sweep, seconds: short enough that off-phase
/// (and tail on-phase) gaps evict the worker.
pub const IDLE_TIMEOUT_S: u64 = 30;

/// Eviction rate of the sweep (shapes the checkpoint policy's β).
pub const ABLATION_RATE: u32 = 20;

/// Simulated hours per cell in a full run.
pub const FULL_HOURS: f64 = 6.0;

/// Simulated hours per cell in a `--quick` run.
pub const QUICK_HOURS: f64 = 1.5;

/// The four provisioning arms, reactive first.
pub fn arms() -> [ProvisionPolicy; 4] {
    [
        ProvisionPolicy::Disabled,
        ProvisionPolicy::predictive(ForecasterKind::SlidingWindow),
        ProvisionPolicy::predictive(ForecasterKind::Ewma),
        ProvisionPolicy::predictive(ForecasterKind::Mpc),
    ]
}

/// Fraction of invocations that paid provisioning (cold boot or restore)
/// on the critical path. Pre-restores are provisioned off-path, so issued
/// pre-restores are subtracted out.
pub fn demand_fraction(stats: &ProductionStats) -> f64 {
    if stats.invocations == 0 {
        return f64::NAN;
    }
    let demand =
        (stats.cold_starts + stats.restores).saturating_sub(stats.provisioning.pre_restores_issued);
    demand as f64 / stats.invocations as f64
}

/// A completed provisioning ablation.
#[derive(Debug, Clone)]
pub struct ProvisionAblation {
    /// Benchmarks × [`arms`]; every cell's axis is [`ABLATION_RATE`].
    pub sweep: Ablation<ProvisionPolicy, ProductionStats>,
    /// Simulated hours per cell.
    pub hours: f64,
}

/// Runs the full ablation: 13 benchmarks × the four provisioning arms.
pub fn run(ctx: &ExperimentContext, quick: bool) -> ProvisionAblation {
    let hours = if quick { QUICK_HOURS } else { FULL_HOURS };
    run_for(ctx, &paper_benchmarks(), hours)
}

/// The paired, scaled, bursty trace spec every cell replays.
fn trace_spec(hours: f64) -> pronghorn_traces::ProductionTraceSpec {
    let base = TraceSpec::production(hours, 0.9);
    let scale = TARGET_RATE_PER_SEC / base.rate_per_sec();
    base.with_rate_scale(scale)
        .with_burst(BURST_ON_FRAC, SimDuration::from_secs(BURST_PERIOD_S))
}

/// Runs the ablation over an explicit benchmark set.
///
/// # Panics
///
/// Panics if a benchmark name is unknown — experiment tables are static
/// and must fail loudly.
pub fn run_for(ctx: &ExperimentContext, benchmarks: &[&str], hours: f64) -> ProvisionAblation {
    let sweep = Ablation::run(
        ctx,
        benchmarks,
        &[ABLATION_RATE],
        &arms(),
        // Arms of one benchmark replay the same trace.
        |bench, _| ctx.cell_seed(&["provision", bench]),
        |workload, rate, arm, seed| {
            let cfg = RunConfig::paper(PolicyKind::RequestCentric, rate, seed)
                .with_restore(RestoreStrategy::RecordPrefetch)
                .with_idle_timeout(SimDuration::from_secs(IDLE_TIMEOUT_S))
                .with_provision(arm);
            let stream = trace_spec(hours).stream(RngFactory::new(seed).stream("provision"));
            run_production(workload, &cfg, stream)
        },
    );
    ProvisionAblation { sweep, hours }
}

impl ProvisionAblation {
    /// The measurements of one benchmark under one arm.
    pub fn stats(&self, workload: &str, arm: ProvisionPolicy) -> Option<&ProductionStats> {
        self.sweep
            .cell(workload, ABLATION_RATE, arm)
            .map(|c| &c.result)
    }

    /// Whether `arm` beats the reactive baseline on `workload`: strictly
    /// lower p99 latency, or a strictly lower critical-path provisioning
    /// fraction. `None` when either cell is missing.
    pub fn beats_reactive(&self, workload: &str, arm: ProvisionPolicy) -> Option<bool> {
        let reactive = self.stats(workload, ProvisionPolicy::Disabled)?;
        let stats = self.stats(workload, arm)?;
        let p99_win = stats.p99_latency_us < reactive.p99_latency_us;
        let demand_win = demand_fraction(stats) < demand_fraction(reactive);
        Some(p99_win || demand_win)
    }

    /// Benchmarks where `arm` beats reactive, as `(wins, total)`.
    pub fn wins(&self, arm: ProvisionPolicy) -> (usize, usize) {
        let mut wins = 0;
        let mut total = 0;
        for w in self.sweep.workloads() {
            if let Some(win) = self.beats_reactive(&w, arm) {
                total += 1;
                wins += usize::from(win);
            }
        }
        (wins, total)
    }

    /// Benchmarks where at least one predictive arm beats reactive, as
    /// `(wins, total)` — the headline acceptance number.
    pub fn best_arm_wins(&self) -> (usize, usize) {
        let mut wins = 0;
        let mut total = 0;
        for w in self.sweep.workloads() {
            let any: Vec<bool> = arms()
                .into_iter()
                .filter(|a| a.enabled())
                .filter_map(|a| self.beats_reactive(&w, a))
                .collect();
            if !any.is_empty() {
                total += 1;
                wins += usize::from(any.iter().any(|&b| b));
            }
        }
        (wins, total)
    }

    /// Pooled provisioning counters for `arm` across all benchmarks:
    /// `(issued, used, wasted, keepalive_byte_s)`.
    pub fn pooled_provisioning(&self, arm: ProvisionPolicy) -> (u64, u64, u64, f64) {
        let mut issued = 0;
        let mut used = 0;
        let mut wasted = 0;
        let mut byte_s = 0.0;
        for cell in self.sweep.arm_cells(arm) {
            let p = &cell.result.provisioning;
            issued += p.pre_restores_issued;
            used += p.pre_restores_used;
            wasted += p.pre_restores_wasted;
            byte_s += p.keepalive_byte_s;
        }
        (issued, used, wasted, byte_s)
    }

    /// Paper-style rendering: per-arm win counts and pooled pre-restore
    /// accounting, then the headline best-arm count.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "Arm",
            "p99-or-demand wins",
            "Pre-restores (used/issued)",
            "Wasted",
            "Keep-alive MB·s",
        ]);
        for arm in arms() {
            let (issued, used, wasted, byte_s) = self.pooled_provisioning(arm);
            let (wins, total) = self.wins(arm);
            table.row(vec![
                arm.label().to_string(),
                if arm.enabled() {
                    format!("{wins}/{total}")
                } else {
                    "baseline".to_string()
                },
                format!("{used}/{issued}"),
                wasted.to_string(),
                format!("{:.1}", byte_s / 1e6),
            ]);
        }
        let (best, total) = self.best_arm_wins();
        let uploader = ForecasterKind::ALL
            .iter()
            .filter_map(|&k| self.beats_reactive("Uploader", ProvisionPolicy::predictive(k)))
            .any(|b| b);
        format!(
            "Predictive-provisioning ablation ({}h sparse bursty trace, idle timeout {IDLE_TIMEOUT_S}s)\n\n{}\n\
             best predictive arm beats reactive on {best}/{total} benchmarks; \
             Uploader win: {uploader}\n",
            self.hours,
            table.render(TableStyle::Plain),
        )
    }

    /// CSV form: one row per cell, in fixed benchmark × arm order
    /// (byte-identical across same-seed reruns).
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "workload",
            "arm",
            "invocations",
            "p50_us",
            "p99_us",
            "max_us",
            "cold_starts",
            "restores",
            "demand_fraction",
            "pre_restores_issued",
            "pre_restores_used",
            "pre_restores_wasted",
            "keepalive_byte_s",
            "beats_reactive",
        ]);
        for w in self.sweep.workloads() {
            for arm in arms() {
                let Some(stats) = self.stats(&w, arm) else {
                    continue;
                };
                let p = &stats.provisioning;
                table.row(vec![
                    w.clone(),
                    arm.label().to_string(),
                    stats.invocations.to_string(),
                    csv_f64(stats.p50_latency_us),
                    csv_f64(stats.p99_latency_us),
                    csv_f64(stats.max_latency_us),
                    stats.cold_starts.to_string(),
                    stats.restores.to_string(),
                    csv_f64(demand_fraction(stats)),
                    p.pre_restores_issued.to_string(),
                    p.pre_restores_used.to_string(),
                    p.pre_restores_wasted.to_string(),
                    csv_f64(p.keepalive_byte_s),
                    if arm.enabled() {
                        match self.beats_reactive(&w, arm) {
                            Some(true) => "win".to_string(),
                            Some(false) => "loss".to_string(),
                            None => String::new(),
                        }
                    } else {
                        "baseline".to_string()
                    },
                ]);
            }
        }
        table.to_csv()
    }

    /// Writes `results/provision_ablation.csv`.
    pub fn save(&self) -> std::io::Result<std::path::PathBuf> {
        write_results_file("provision_ablation.csv", &self.to_csv())
    }

    /// Writes `results/BENCH_provision.json` in the shared
    /// [`BenchReport`] schema: one arm per provisioning policy with win
    /// counts and pooled pre-restore accounting (including keep-alive
    /// byte-seconds), plus the headline best-arm section.
    pub fn save_bench_report(&self) -> std::io::Result<std::path::PathBuf> {
        let mut report = BenchReport::new("provision")
            .config("hours", format!("{:.3}", self.hours))
            .config("target_rate_per_sec", format!("{TARGET_RATE_PER_SEC:.6}"))
            .config("burst_on_frac", format!("{BURST_ON_FRAC}"))
            .config("burst_period_s", BURST_PERIOD_S.to_string())
            .config("idle_timeout_s", IDLE_TIMEOUT_S.to_string())
            .config("eviction_rate", ABLATION_RATE.to_string());
        for arm in arms() {
            let (issued, used, wasted, byte_s) = self.pooled_provisioning(arm);
            let (wins, total) = self.wins(arm);
            let mut obj = JsonObj::new()
                .str("arm", arm.label())
                .uint("benchmarks", total as u64)
                .uint("pre_restores_issued", issued)
                .uint("pre_restores_used", used)
                .uint("pre_restores_wasted", wasted)
                .float("keepalive_byte_s", byte_s, 3);
            if arm.enabled() {
                obj = obj.uint("wins", wins as u64);
            }
            report.arm(obj);
        }
        let (best, total) = self.best_arm_wins();
        report.section(
            "best_arm",
            JsonObj::new()
                .uint("wins", best as u64)
                .uint("benchmarks", total as u64)
                .render(),
        );
        report.save("BENCH_provision.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ablation(benches: &[&str]) -> ProvisionAblation {
        run_for(&ExperimentContext::quick(), benches, QUICK_HOURS)
    }

    #[test]
    fn predictive_beats_reactive_on_uploader_and_friends() {
        let ablation = quick_ablation(&["Uploader", "DFS", "Hash"]);
        assert_eq!(ablation.sweep.cells.len(), 3 * 4);
        // The headline claim holds on the quick subset, and in
        // particular on the IO-bound Uploader — the benchmark the
        // request-centric policy regresses without pre-warming.
        let (wins, total) = ablation.best_arm_wins();
        assert_eq!(total, 3);
        assert_eq!(wins, 3, "{}", ablation.render());
        let uploader_win = ForecasterKind::ALL
            .iter()
            .filter_map(|&k| ablation.beats_reactive("Uploader", ProvisionPolicy::predictive(k)))
            .any(|b| b);
        assert!(uploader_win, "{}", ablation.render());
    }

    #[test]
    fn predictive_arms_actually_pre_restore() {
        let ablation = quick_ablation(&["Uploader"]);
        for kind in ForecasterKind::ALL {
            let arm = ProvisionPolicy::predictive(kind);
            let (issued, used, wasted, _) = ablation.pooled_provisioning(arm);
            assert_eq!(issued, used + wasted, "{kind:?} leaks pre-restores");
        }
        // The eager arms must fire on this trace; reactive never does.
        let (issued, _, _, _) =
            ablation.pooled_provisioning(ProvisionPolicy::predictive(ForecasterKind::Ewma));
        assert!(issued > 0);
        let (reactive, _, _, _) = ablation.pooled_provisioning(ProvisionPolicy::Disabled);
        assert_eq!(reactive, 0);
    }

    #[test]
    fn csv_is_deterministic_and_flags_wins() {
        let ablation = quick_ablation(&["Uploader", "DFS"]);
        let csv = ablation.to_csv();
        assert_eq!(csv.lines().count(), 1 + 2 * 4);
        assert!(csv.starts_with("workload,arm,"));
        assert!(csv.contains(",baseline"));
        assert!(csv.contains(",win"));
        let again = quick_ablation(&["Uploader", "DFS"]);
        assert_eq!(csv, again.to_csv());
    }
}
