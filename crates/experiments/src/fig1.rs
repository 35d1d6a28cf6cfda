//! Figure 1: JIT warm-up curves and the premature-vs-ideal snapshot gap.
//!
//! The paper runs Dynamic HTML generation for ~2 500 sequential requests
//! on PyPy (1a) and on the OpenJDK JVM (1b), marking where existing
//! solutions snapshot (right after request 1) versus where Pronghorn aims
//! (the converged region), and reporting the latency reduction between
//! them: **33.33% on PyPy, 75.60% on the JVM**.

use crate::render::ascii_series;
use crate::sweep::{Field, Rows, Value};
use crate::ExperimentContext;
use pronghorn_jit::Runtime;
use pronghorn_metrics::{convergence_request, ConvergenceCriteria};
use pronghorn_sim::RngFactory;
use pronghorn_workloads::{by_name, InputVariance, Workload};

/// One warm-up curve.
#[derive(Debug, Clone)]
pub struct WarmupCurve {
    /// Benchmark driving the runtime.
    pub workload: String,
    /// Runtime label (`"pypy"` / `"jvm"`).
    pub runtime: String,
    /// Execution latency per request number, µs.
    pub latencies_us: Vec<f64>,
    /// Median latency right after request 1 — where existing solutions
    /// snapshot.
    pub premature_us: f64,
    /// Median latency of the converged tail — where Pronghorn aims.
    pub converged_us: f64,
    /// Latency reduction between the two, percent.
    pub reduction_pct: f64,
    /// Request number at which the curve converged (window-20 criterion).
    pub convergence_request: Option<usize>,
}

/// Figure 1's two panels.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Panel (a): DynamicHTML on PyPy; panel (b): HTMLRendering on the JVM.
    pub curves: Vec<WarmupCurve>,
}

/// The median of a latency window (its upper middle for an even count).
pub(crate) fn window_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    v[v.len() / 2]
}

/// Execution latency, µs, of each of `requests` sequential requests on a
/// single long-lived worker, with no input-size noise: the intrinsic
/// warm-up that Figure 1 plots and Table 1 samples.
pub fn warmup_latencies(workload: &dyn Workload, requests: usize, seed: u64) -> Vec<f64> {
    let factory = RngFactory::new(seed);
    let mut boot_rng = factory.stream("boot");
    let (mut runtime, _) = Runtime::cold_start(
        workload.runtime_profile(),
        workload.method_profiles(),
        &mut boot_rng,
    );
    let mut exec_rng = factory.stream("exec");
    (0..requests as u64)
        .map(|i| {
            let mut input_rng = factory.stream_indexed("input", i);
            let request = workload.generate(&mut input_rng, InputVariance::none());
            runtime.execute(&request, &mut exec_rng).total_us()
        })
        .collect()
}

/// Runs one warm-up curve: a single long-lived worker, sequential requests.
pub fn warmup_curve(workload: &dyn Workload, requests: usize, seed: u64) -> WarmupCurve {
    let latencies = warmup_latencies(workload, requests, seed);
    // "Existing solutions" snapshot right after request 1: the latency a
    // worker restored from that snapshot serves is the immediately-post-
    // request-1 level (median of requests 2..7 — after the lazy-init spike
    // but before the first background compiles land).
    let premature_us = window_median(&latencies[1..7.min(latencies.len())]);
    let tail_start = latencies.len().saturating_sub(50);
    let converged_us = window_median(&latencies[tail_start..]);
    let reduction_pct = (premature_us - converged_us) / premature_us * 100.0;
    WarmupCurve {
        workload: workload.name().to_string(),
        runtime: workload.kind().label().to_string(),
        // Reference the final value over the last 100 requests so a
        // deoptimization landing in the very tail does not skew the
        // convergence point.
        convergence_request: convergence_request(
            &latencies,
            ConvergenceCriteria::default().with_reference_window(100),
        ),
        latencies_us: latencies,
        premature_us,
        converged_us,
        reduction_pct,
    }
}

/// Runs both Figure 1 panels.
pub fn run(ctx: &ExperimentContext) -> Fig1Result {
    let pypy = by_name("DynamicHTML").expect("table benchmark");
    let jvm = by_name("HTMLRendering").expect("table benchmark");
    Fig1Result {
        curves: vec![
            warmup_curve(&pypy, 2_500, ctx.cell_seed(&["fig1", "pypy"])),
            warmup_curve(&jvm, 2_500, ctx.cell_seed(&["fig1", "jvm"])),
        ],
    }
}

impl Rows for Fig1Result {
    /// One line per curve with its ASCII warm-up plot; the 2 × 2,500
    /// rows stay in the CSV.
    fn render(&self) -> String {
        let mut out = String::from(
            "Figure 1: warm-up latency vs request number (premature = snapshot \
             after request 1; ideal = converged tail)\n\n",
        );
        for curve in &self.curves {
            out.push_str(&format!(
                "({}) {} on {}: premature {:.0}µs -> converged {:.0}µs  \
                 [latency reduction {:.2}%]  convergence ~request {}\n",
                if curve.runtime == "pypy" { "a" } else { "b" },
                curve.workload,
                curve.runtime,
                curve.premature_us,
                curve.converged_us,
                curve.reduction_pct,
                curve
                    .convergence_request
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "-".to_string()),
            ));
            out.push_str(&ascii_series(&curve.latencies_us, 72, 10));
            out.push('\n');
        }
        out
    }

    /// The raw curves: one row per request of each curve.
    fn rows(&self) -> Vec<Vec<Field>> {
        let mut rows = Vec::new();
        for curve in &self.curves {
            for (i, &latency) in curve.latencies_us.iter().enumerate() {
                rows.push(vec![
                    ("runtime", Value::Label(curve.runtime.clone())),
                    ("workload", Value::Label(curve.workload.clone())),
                    ("request", Value::Uint(i as u64)),
                    ("latency_us", Value::Float(latency, 1)),
                ]);
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pypy_panel_matches_figure_1a_shape() {
        let ctx = ExperimentContext::quick();
        let workload = by_name("DynamicHTML").unwrap();
        let curve = warmup_curve(&workload, 2_500, ctx.cell_seed(&["t", "a"]));
        // 33.3% reduction in the paper; accept a generous band.
        assert!(
            (20.0..=45.0).contains(&curve.reduction_pct),
            "reduction {:.1}%",
            curve.reduction_pct
        );
        // Converges around request ~1000 (PyPy's trace threshold).
        let conv = curve.convergence_request.expect("converges");
        assert!((500..=1_800).contains(&conv), "convergence at {conv}");
    }

    #[test]
    fn jvm_panel_matches_figure_1b_shape() {
        let ctx = ExperimentContext::quick();
        let workload = by_name("HTMLRendering").unwrap();
        let curve = warmup_curve(&workload, 2_500, ctx.cell_seed(&["t", "b"]));
        // 75.6% reduction in the paper.
        assert!(
            (60.0..=85.0).contains(&curve.reduction_pct),
            "reduction {:.1}%",
            curve.reduction_pct
        );
        // Converges far later than PyPy (paper: ~2500 vs ~1000).
        let conv = curve.convergence_request.expect("converges");
        assert!(conv > 1_200, "convergence at {conv}");
    }

    #[test]
    fn render_and_csv_contain_both_panels() {
        let ctx = ExperimentContext::quick();
        let result = run(&ctx);
        let text = result.render();
        assert!(text.contains("DynamicHTML on pypy"));
        assert!(text.contains("HTMLRendering on jvm"));
        let csv = result.to_csv();
        assert!(csv.lines().count() > 4_000);
    }
}
