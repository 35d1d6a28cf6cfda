//! The Java (JVM) benchmarks: Figure 5's four plus Table 1's JSON.
//!
//! First-request targets reproduce Table 1's baselines: Hash 27 ms,
//! HTML(Rendering) 650 ms, WordCount 64 ms, JSON 360 ms — each split into
//! a workload-specific lazy-initialization share (framework class loading)
//! and an interpreted execution share, because the JVM "lazily initializes
//! many internal data structures inside the interpreter and JIT compiler"
//! on the first request (§5.1).

use crate::kernels::{hashing, html, json, matrix, text};
use crate::spec::{MethodSpec, SpecWorkload, WorkloadSpec};
use pronghorn_jit::RuntimeKind;
use rand::Rng;
use std::collections::HashMap;

/// Standard JVM method table, shaped like HotSpot warm-up in three phases:
/// steep early C1 gains (the hot/mid loops cross the low C1 threshold
/// within the first handful of requests — so long-lived workers self-warm
/// and the improvement over the state of the art shrinks at slow eviction
/// rates), C2 for the hottest loop inside the policy's `W = 200` search
/// space (the part a well-placed snapshot captures), and a long tail —
/// the setup path's C2 at ~2 400 and the driver's C1 at ~250 produce
/// Figure 1b's ~2 500-request convergence.
fn jvm_methods(driver: &'static str, mid: &'static str, hot: &'static str) -> Vec<MethodSpec> {
    vec![
        MethodSpec {
            name: driver,
            base_calls: 1.0,
            share: 0.10,
        },
        MethodSpec {
            name: "setup_path",
            base_calls: 5.0,
            share: 0.15,
        },
        MethodSpec {
            name: mid,
            base_calls: 45.0,
            share: 0.35,
        },
        MethodSpec {
            name: hot,
            base_calls: 140.0,
            share: 0.40,
        },
    ]
}

/// `HTMLRendering`: HTML template rendering with random numbers — the
/// Figure 1b workload (75.6% reduction, ~2 500-request convergence) and
/// Table 1's "HTML" column (650 ms first request).
pub fn html_rendering() -> SpecWorkload {
    let template = html::Template::parse(
        "<table>{% for row in rows %}<tr><td>{{ row }}</td>\
         <td>{% if hot %}{{ label }}{% end %}</td></tr>{% end %}</table>",
    )
    .expect("static template parses");
    let mut ctx = HashMap::new();
    ctx.insert("hot".to_string(), html::Value::Number(1.0));
    ctx.insert("label".to_string(), html::Value::Text("r&d".into()));
    let render =
        html::IntListRender::measure(&template, &ctx, "rows").expect("static template renders");
    SpecWorkload::new(WorkloadSpec {
        name: "HTMLRendering",
        kind: RuntimeKind::Jvm,
        lazy_init_us: 400_000.0,
        interp_exec_us: 250_000.0,
        full_speedup: 4.2,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: jvm_methods("render_template", "render_block", "write_escaped"),
        kernel: Box::new(move |rng, f| {
            let rows = ((120.0 * f) as usize).max(1);
            let digits = (0..rows)
                .map(|_| html::decimal_digits(rng.gen_range(0..1_000_000)))
                .sum();
            let stats = render.stats(rows, digits);
            (stats.nodes_rendered + stats.lookups + stats.chars_escaped) as f64
                + stats.bytes_out as f64 / 8.0
        }),
    })
}

/// `MatrixMult`: square matrix multiplication with random sizes.
pub fn matrix_mult() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "MatrixMult",
        kind: RuntimeKind::Jvm,
        lazy_init_us: 90_000.0,
        interp_exec_us: 150_000.0,
        full_speedup: 3.3,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: jvm_methods("multiply", "row_pass", "dot_product"),
        kernel: Box::new(|rng, f| {
            // Latency scales with f (cube of the linear dimension).
            let n = ((24.0 * f.cbrt()) as usize).max(2);
            // Two random n × n operands; the product costs n³ multiply-adds.
            matrix::skip_random(rng, n, n);
            matrix::skip_random(rng, n, n);
            (n * n * n) as f64
        }),
    })
}

/// `Hash`: checksum of a large random byte array — Table 1's 27 ms
/// first-request baseline.
pub fn hash() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "Hash",
        kind: RuntimeKind::Jvm,
        lazy_init_us: 8_000.0,
        interp_exec_us: 19_000.0,
        full_speedup: 2.4,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: jvm_methods("digest", "compress_block", "schedule_words"),
        kernel: Box::new(|rng, f| {
            let bytes = ((8_192.0 * f) as usize).max(64);
            // `fill_bytes` takes one generator step per started 8 bytes.
            rng.discard(bytes.div_ceil(8) as u64);
            let blocks = hashing::sha256_blocks(bytes as u64);
            blocks as f64 * 64.0 + bytes as f64 / 8.0
        }),
    })
}

/// `WordCount`: word counting over random-length excerpts — Table 1's
/// 64 ms first-request baseline.
pub fn word_count() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "WordCount",
        kind: RuntimeKind::Jvm,
        lazy_init_us: 20_000.0,
        interp_exec_us: 44_000.0,
        full_speedup: 3.2,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: jvm_methods("count_words", "tokenize", "update_map"),
        kernel: Box::new(|rng, f| {
            let words = ((800.0 * f) as usize).max(1);
            // Every generated word is one token.
            let bytes = text::generated_text_len(rng, words);
            (4 * words) as f64 + bytes as f64 / 4.0
        }),
    })
}

/// `JSON`: serialize and re-parse a random document — Table 1's 360 ms
/// first-request baseline (from the authors' HotOS'21 benchmark set).
pub fn json_bench() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "JSON",
        kind: RuntimeKind::Jvm,
        lazy_init_us: 150_000.0,
        interp_exec_us: 210_000.0,
        full_speedup: 4.3,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: jvm_methods("handle_document", "parse_value", "lex_token"),
        kernel: Box::new(|rng, f| {
            let nodes = ((300.0 * f) as usize).max(4);
            let doc = json::random_document(rng, nodes);
            let (serialized, ser_nodes) = json::serialize(&doc);
            let (_, stats) = json::parse(&serialized).expect("round trip parses");
            (6 * stats.nodes + 2 * ser_nodes + stats.string_chars) as f64 + stats.bytes as f64 / 8.0
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputVariance;
    use crate::spec::Workload;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn all_java_benchmarks_construct() {
        let benches = crate::java_benchmarks();
        assert_eq!(benches.len(), 5);
        for b in &benches {
            assert_eq!(b.kind(), RuntimeKind::Jvm);
            assert!(!b.io_bound());
        }
    }

    #[test]
    fn table1_first_request_baselines() {
        // Table 1: lazy init + interpreted execution should approximate the
        // paper's first-request latencies (27 / 650 / 64 / 360 ms).
        let targets_ms = [27.0, 650.0, 64.0, 360.0];
        for (b, target) in crate::table1_benchmarks().into_iter().zip(targets_ms) {
            let spec_first_ms = (b.spec().lazy_init_us + b.spec().interp_exec_us) / 1_000.0;
            let rel = (spec_first_ms - target).abs() / target;
            assert!(
                rel < 0.05,
                "{}: {spec_first_ms} ms vs {target} ms",
                b.name()
            );
        }
    }

    #[test]
    fn html_rendering_speedup_matches_figure1b() {
        // 4.2x ≈ the 75.6% latency reduction of Figure 1b.
        let b = html_rendering();
        for m in b.method_profiles() {
            assert!((m.tier2_speedup - 4.2).abs() < 1e-12);
            assert!((1.0 - 1.0 / m.tier2_speedup - 0.762).abs() < 0.01);
        }
    }

    #[test]
    fn matrix_latency_scales_linearly_with_factor() {
        let b = matrix_mult();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut at = |f: f64| -> f64 {
            let spec = b.spec();
            (spec.kernel)(&mut rng, f)
        };
        let small = at(0.5);
        let large = at(8.0);
        // flops ~ n^3 ~ f, so the ratio should be ~16 (quantization aside).
        let ratio = large / small;
        assert!((8.0..=40.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn generated_requests_reference_valid_methods() {
        for b in crate::java_benchmarks() {
            let mut rng = SmallRng::seed_from_u64(6);
            let req = b.generate(&mut rng, InputVariance::paper());
            let n = b.method_profiles().len();
            for e in &req.entries {
                assert!(e.method < n);
                assert!(e.units >= 0.0);
                assert!(e.calls >= 0.0);
            }
        }
    }

    #[test]
    fn interp_target_calibration_holds() {
        let b = word_count();
        let mut rng = SmallRng::seed_from_u64(7);
        let mean: f64 = (0..30)
            .map(|_| {
                b.generate(&mut rng, InputVariance::none())
                    .interpreted_compute_us()
            })
            .sum::<f64>()
            / 30.0;
        let rel = (mean - 44_000.0).abs() / 44_000.0;
        assert!(rel < 0.2, "mean {mean}");
    }
}
