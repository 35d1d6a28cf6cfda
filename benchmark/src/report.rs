//! The metric catalog: every name the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` mirrors it (a test
//! holds the two equal).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes).
    Lower,
    /// Larger values are better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by untraced runs. Host-time metrics are
/// medians over the run's repetitions; `sim_*` metrics are simulated
/// outcomes, identical in every repetition of one seed.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("wall_s", "s", Lower, 0.24),
    e2e("sim_req_per_s", "req/s", Higher, 0.24),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.24),
    e2e("sim_mean_ms", "ms", Lower, 0.24),
];

/// Per-layer metrics, printed by traced runs. Layers are named after the
/// crates. Quantities a workload does not exercise read 0; every time a
/// workload may not exercise is reported as a share of the traced wall
/// time, so each time-valued metric is measured on every workload.
pub const PER_LAYER: [MetricDef; 58] = [
    layer("workloads.generate_calls", "count", Lower),
    layer("workloads.generate_s", "s", Lower),
    layer("workloads.generate_share", "ratio", Lower),
    layer("workloads.profile_calls", "count", Lower),
    layer("workloads.profile_s", "s", Lower),
    layer("traces.arrivals", "count", Higher),
    layer("traces.stream_share", "ratio", Lower),
    layer("platform.run_s", "s", Lower),
    layer("platform.self_s", "s", Lower),
    layer("platform.self_ns_per_req", "ns", Lower),
    layer("jit.requests_executed", "count", Higher),
    layer("jit.cold_boots", "count", Lower),
    layer("core.startups", "count", Lower),
    layer("core.checkpoints", "count", Lower),
    layer("core.provision_ms_per_startup", "ms", Lower),
    layer("core.peak_pool_mb", "MB", Lower),
    layer("checkpoint.encodes", "count", Lower),
    layer("checkpoint.encode_skips", "count", Higher),
    layer("checkpoint.skip_ratio", "ratio", Higher),
    layer("checkpoint.mb_encoded", "MB", Lower),
    layer("checkpoint.encode_share", "ratio", Lower),
    layer("checkpoint.checksum_share", "ratio", Lower),
    layer("checkpoint.delta_encodes", "count", Higher),
    layer("checkpoint.delta_page_ratio", "ratio", Lower),
    layer("checkpoint.downtime_ms_mean", "ms", Lower),
    layer("restore.restores", "count", Higher),
    layer("restore.provision_share", "ratio", Lower),
    layer("restore.faults", "count", Lower),
    layer("restore.prefetched_pages", "count", Higher),
    layer("restore.prefetch_ratio", "ratio", Higher),
    layer("restore.mb", "MB", Lower),
    layer("store.puts", "count", Lower),
    layer("store.gets", "count", Lower),
    layer("store.mb_uploaded", "MB", Lower),
    layer("store.mb_downloaded", "MB", Lower),
    layer("store.dedup_ratio", "ratio", Higher),
    layer("store.peak_mb", "MB", Lower),
    layer("store.chain_deltas", "count", Higher),
    layer("store.chain_consolidations", "count", Lower),
    layer("store.composed_restores", "count", Higher),
    layer("store.cache_hit_ratio", "ratio", Higher),
    layer("store.cache_evictions", "count", Lower),
    layer("store.wire_mb_down", "MB", Lower),
    layer("store.wire_mb_up", "MB", Lower),
    layer("store.decompress_share", "ratio", Lower),
    layer("sim.peak_pending", "count", Lower),
    layer("sim.replay_events_per_s", "1/s", Higher),
    layer("cluster.hit_rate", "ratio", Higher),
    layer("cluster.remote_mb", "MB", Lower),
    layer("cluster.spillovers", "count", Lower),
    layer("cluster.queue_delay_share", "ratio", Lower),
    layer("cluster.peak_workers", "count", Lower),
    layer("forecast.pre_restores_issued", "count", Higher),
    layer("forecast.use_ratio", "ratio", Higher),
    layer("forecast.keepalive_gb_s", "GB.s", Lower),
    layer("metrics.summarize_s", "s", Lower),
    layer("metrics.samples", "count", Higher),
    // Traced wall time over the untraced median, as a percent overhead:
    // the only per-layer metric derived from both kinds of repetition.
    layer(TRACE_OVERHEAD, "%", Lower),
];

/// Name of the per-layer metric the run derives rather than a repetition.
pub const TRACE_OVERHEAD: &str = "trace_overhead_pct";

/// Renders the final result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite value with every digit Rust's shortest round-trip form gives;
/// JSON has no NaN, so a non-finite value (already reported as a failure)
/// prints as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let bound = |name| {
            END_TO_END
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.bound)
        };
        let setup = bound("setup_s").unwrap();
        assert!(setup <= 0.25);
        assert!(END_TO_END
            .iter()
            .all(|m| m.name == "setup_s" || m.bound.unwrap() < setup));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[(&END_TO_END[0], 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
