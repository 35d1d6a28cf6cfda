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

use crate::bench_report::json_object;
use crate::sweep::{fields_table, paper_benchmarks, Ablation, Cell, Columns, Field, Value};
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
use pronghorn_platform::{
    run_production, ForecasterKind, ProductionStats, ProvisionPolicy, ProvisionStats,
    RestoreStrategy, RunConfig,
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

/// Benchmarks × [`arms`]; every cell's axis is [`ABLATION_RATE`].
pub type ProvisionSweep = Ablation<ProvisionPolicy, ProductionStats>;

/// A completed provisioning ablation.
#[derive(Debug, Clone)]
pub struct ProvisionAblation {
    /// The sweep.
    pub sweep: ProvisionSweep,
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

impl ProvisionSweep {
    /// Whether `arm` beats the reactive baseline on `workload`: strictly
    /// lower p99 latency, or a strictly lower critical-path provisioning
    /// fraction. `None` when either cell is missing.
    pub fn beats_reactive(&self, workload: &str, arm: ProvisionPolicy) -> Option<bool> {
        let stats = |arm| self.cell(workload, ABLATION_RATE, arm).map(|c| &c.result);
        let (reactive, stats) = (stats(ProvisionPolicy::Disabled)?, stats(arm)?);
        let p99_win = stats.p99_latency_us < reactive.p99_latency_us;
        let demand_win = demand_fraction(stats) < demand_fraction(reactive);
        Some(p99_win || demand_win)
    }

    /// Benchmarks where `arm` beats reactive, as `(wins, total)`.
    pub fn wins(&self, arm: ProvisionPolicy) -> (usize, usize) {
        self.tally(|w| self.beats_reactive(w, arm))
    }

    /// Benchmarks where at least one predictive arm beats reactive, as
    /// `(wins, total)` — the headline acceptance number.
    pub fn best_arm_wins(&self) -> (usize, usize) {
        self.tally(|w| {
            let predictive = arms().into_iter().filter(ProvisionPolicy::enabled);
            let verdicts: Vec<bool> = predictive
                .filter_map(|a| self.beats_reactive(w, a))
                .collect();
            (!verdicts.is_empty()).then(|| verdicts.contains(&true))
        })
    }
}

impl ProvisionAblation {
    /// Printed form: per-arm win counts and pooled pre-restore
    /// accounting, then the headline best-arm count.
    pub fn render(&self) -> String {
        let (best, total) = self.sweep.best_arm_wins();
        let uploader = ForecasterKind::ALL
            .iter()
            .filter_map(|&k| {
                self.sweep
                    .beats_reactive("Uploader", ProvisionPolicy::predictive(k))
            })
            .any(|b| b);
        format!(
            "Predictive-provisioning ablation ({}h sparse bursty trace, idle timeout {IDLE_TIMEOUT_S}s)\n\n{}\n\
             best predictive arm beats reactive on {best}/{total} benchmarks; \
             Uploader win: {uploader}\n",
            self.hours,
            fields_table(&self.sweep.arm_rows()),
        )
    }

    /// `BENCH_provision.json`: one arm per provisioning policy with win
    /// counts and pooled pre-restore accounting (including keep-alive
    /// byte-seconds), plus the headline best-arm section.
    pub fn bench_json(&self) -> String {
        let mut report = self
            .sweep
            .bench_report("provision")
            .config("hours", format!("{:.3}", self.hours))
            .config("target_rate_per_sec", format!("{TARGET_RATE_PER_SEC:.6}"))
            .config("burst_on_frac", format!("{BURST_ON_FRAC}"))
            .config("burst_period_s", BURST_PERIOD_S.to_string())
            .config("idle_timeout_s", IDLE_TIMEOUT_S.to_string())
            .config("eviction_rate", ABLATION_RATE.to_string());
        let (best, total) = self.sweep.best_arm_wins();
        report.section(
            "best_arm",
            json_object(&[
                ("wins", Value::Uint(best as u64)),
                ("benchmarks", Value::Uint(total as u64)),
            ]),
        );
        report.render()
    }
}

/// The sweep has one axis value, so its CSV leaves the axis out.
impl Columns<ProductionStats> for ProvisionPolicy {
    const AXIS: Option<&'static str> = None;
    const ARM: &'static str = "arm";

    fn arm_label(self) -> &'static str {
        self.label()
    }

    fn cell(sweep: &ProvisionSweep, cell: &Cell<Self, ProductionStats>) -> Vec<Field> {
        let (stats, arm) = (&cell.result, cell.arm);
        let p = &stats.provisioning;
        let verdict = match (arm.enabled(), sweep.beats_reactive(&cell.workload, arm)) {
            (false, _) => "baseline",
            (true, Some(true)) => "win",
            (true, Some(false)) => "loss",
            (true, None) => "",
        };
        vec![
            ("invocations", Value::Uint(stats.invocations)),
            ("p50_us", Value::Float(stats.p50_latency_us, 3)),
            ("p99_us", Value::Float(stats.p99_latency_us, 3)),
            ("max_us", Value::Float(stats.max_latency_us, 3)),
            ("cold_starts", Value::Uint(stats.cold_starts)),
            ("restores", Value::Uint(stats.restores)),
            ("demand_fraction", Value::Float(demand_fraction(stats), 3)),
            ("pre_restores_issued", Value::Uint(p.pre_restores_issued)),
            ("pre_restores_used", Value::Uint(p.pre_restores_used)),
            ("pre_restores_wasted", Value::Uint(p.pre_restores_wasted)),
            ("keepalive_byte_s", Value::Float(p.keepalive_byte_s, 3)),
            ("beats_reactive", Value::Str(verdict)),
        ]
    }

    /// Pooled pre-restore accounting; the reactive baseline has no `wins`.
    fn pooled(
        sweep: &ProvisionSweep,
        arm: Self,
        cells: &[&Cell<Self, ProductionStats>],
    ) -> Vec<Field> {
        let sum = |count: fn(&ProvisionStats) -> u64| {
            Value::Uint(cells.iter().map(|c| count(&c.result.provisioning)).sum())
        };
        let byte_s = cells
            .iter()
            .map(|c| c.result.provisioning.keepalive_byte_s)
            .sum();
        let (wins, total) = sweep.wins(arm);
        let mut fields = vec![
            ("benchmarks", Value::Uint(total as u64)),
            ("pre_restores_issued", sum(|p| p.pre_restores_issued)),
            ("pre_restores_used", sum(|p| p.pre_restores_used)),
            ("pre_restores_wasted", sum(|p| p.pre_restores_wasted)),
            ("keepalive_byte_s", Value::Float(byte_s, 3)),
        ];
        if arm.enabled() {
            fields.push(("wins", Value::Uint(wins as u64)));
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::lookup;
    use crate::sweep::tests::uint;

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
        let (wins, total) = ablation.sweep.best_arm_wins();
        assert_eq!(total, 3);
        assert_eq!(wins, 3, "{}", ablation.render());
        let uploader_win = ForecasterKind::ALL
            .iter()
            .filter_map(|&k| {
                ablation
                    .sweep
                    .beats_reactive("Uploader", ProvisionPolicy::predictive(k))
            })
            .any(|b| b);
        assert!(uploader_win, "{}", ablation.render());
    }

    #[test]
    fn predictive_arms_actually_pre_restore() {
        let ablation = quick_ablation(&["Uploader"]);
        // Arm lists in `arms()` order: reactive, sliding-window, EWMA, MPC.
        let pooled = ablation.sweep.arm_rows();
        for (kind, fields) in ForecasterKind::ALL.iter().zip(&pooled[1..]) {
            let issued = uint(fields, "pre_restores_issued");
            let used = uint(fields, "pre_restores_used");
            let wasted = uint(fields, "pre_restores_wasted");
            assert_eq!(issued, used + wasted, "{kind:?} leaks pre-restores");
        }
        // The eager arms must fire on this trace; reactive never does.
        assert_eq!(lookup(&pooled[2], "arm"), Some(&Value::Str("ewma")));
        assert!(uint(&pooled[2], "pre_restores_issued") > 0);
        assert_eq!(uint(&pooled[0], "pre_restores_issued"), 0);
        assert_eq!(lookup(&pooled[0], "wins"), None);
    }

    #[test]
    fn csv_is_deterministic_and_flags_wins() {
        let ablation = quick_ablation(&["Uploader", "DFS"]);
        let csv = ablation.sweep.to_csv();
        assert_eq!(csv.lines().count(), 1 + 2 * 4);
        assert!(csv.starts_with("workload,arm,"));
        assert!(csv.contains(",baseline"));
        assert!(csv.contains(",win"));
        let again = quick_ablation(&["Uploader", "DFS"]);
        assert_eq!(csv, again.sweep.to_csv());
    }
}
