//! The nine Python (PyPy) benchmarks of Table 3.
//!
//! Calibration targets (lazy-init, interpreted execution, full JIT speedup,
//! IO share) place each benchmark's latency distribution in the range its
//! Figure 4 panel spans, and split compute- from IO-bound benchmarks the
//! way §5.2 does: the five graph/HTML benchmarks are pure compute (big JIT
//! wins), Compression/Thumbnailer/Video are IO-dominated (on-par), and
//! Uploader is almost entirely IO ("the actual computation is performed by
//! calling out to a native C library"), the benchmark Pronghorn loses.

use crate::kernels::{compress, graph, html, media};
use crate::spec::{MethodSpec, SpecWorkload, WorkloadSpec};
use pronghorn_jit::RuntimeKind;
use rand::Rng;
use std::collections::HashMap;

/// Standard PyPy method table. The warm-up shape the evaluation needs has
/// three phases: a steep early phase (the hot loops cross PyPy's
/// 1 039-call trace threshold within the first ~3–10 requests, so even a
/// 20-request worker lifetime self-warms substantially — this is why the
/// paper's improvements shrink at slower eviction rates), a middle phase
/// with the refined-trace (tier 2) promotions landing inside the policy's
/// `W = 100` search space (what Pronghorn's snapshots capture and the
/// state-of-the-art's request-1 snapshot misses), and a long tail: the
/// once-per-request driver traces only around request ~1 000, Figure 1a's
/// convergence point.
fn pypy_methods(driver: &'static str, mid: &'static str, hot: &'static str) -> Vec<MethodSpec> {
    vec![
        MethodSpec {
            name: driver,
            base_calls: 1.05,
            share: 0.10,
        },
        MethodSpec {
            name: mid,
            base_calls: 100.0,
            share: 0.35,
        },
        MethodSpec {
            name: "loop_body",
            base_calls: 200.0,
            share: 0.20,
        },
        MethodSpec {
            name: hot,
            base_calls: 400.0,
            share: 0.35,
        },
    ]
}

/// `BFS`: breadth-first search on a random graph.
pub fn bfs() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "BFS",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 60_000.0,
        interp_exec_us: 45_000.0,
        full_speedup: 2.5,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: pypy_methods("parse_graph", "pop_frontier", "scan_edges"),
        kernel: Box::new(|rng, f| {
            // BFS visits all n nodes and scans all 2E directed edges.
            let n = ((600.0 * f) as usize).max(2);
            let edges = graph::random_edge_count(rng, n, n);
            (2 * edges + 2 * n) as f64
        }),
    })
}

/// `DFS`: depth-first search on a random graph.
pub fn dfs() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "DFS",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 55_000.0,
        interp_exec_us: 18_000.0,
        full_speedup: 2.6,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: pypy_methods("parse_graph", "push_stack", "scan_edges"),
        kernel: Box::new(|rng, f| {
            // DFS visits all n nodes and scans all 2E directed edges.
            let n = ((500.0 * f) as usize).max(2);
            let edges = graph::random_edge_count(rng, n, n);
            (2 * edges + n) as f64
        }),
    })
}

/// `MST`: Kruskal minimum spanning tree of a random graph.
pub fn mst() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "MST",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 65_000.0,
        interp_exec_us: 35_000.0,
        full_speedup: 2.3,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: pypy_methods("sort_edges", "union", "find_root"),
        kernel: Box::new(|rng, f| {
            let n = ((400.0 * f) as usize).max(2);
            let r = graph::EdgeList::random(rng, n, 2 * n).mst_kruskal();
            let m = r.edges_examined.max(2) as f64;
            m * m.log2() + 3.0 * r.find_steps as f64
        }),
    })
}

/// `PageRank`: power iteration on a random graph.
pub fn pagerank() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "PageRank",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 70_000.0,
        interp_exec_us: 70_000.0,
        full_speedup: 2.5,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: pypy_methods("build_matrix", "iterate", "spread_rank"),
        kernel: Box::new(|rng, f| {
            let n = ((250.0 * f) as usize).max(2);
            let r = graph::EdgeList::random(rng, n, 3 * n).pagerank(25, 1e-7);
            (r.edge_updates + r.iterations * n) as f64
        }),
    })
}

/// `DynamicHTML`: SeBS HTML generation with randomized content — the
/// Figure 1a workload (PyPy: 33.3% reduction, ~1 000-request convergence).
pub fn dynamic_html() -> SpecWorkload {
    let template = html::Template::parse(
        "<html><body><h1>{{ title }}</h1><ul>\
         {% for r in rows %}<li class=\"row\">{{ r }}</li>{% end %}\
         </ul>{% if footer %}<footer>{{ footer }}</footer>{% end %}</body></html>",
    )
    .expect("static template parses");
    let mut ctx = HashMap::new();
    ctx.insert(
        "title".to_string(),
        html::Value::Text("Random numbers".into()),
    );
    ctx.insert("footer".to_string(), html::Value::Text("generated".into()));
    let render =
        html::IntListRender::measure(&template, &ctx, "rows").expect("static template renders");
    SpecWorkload::new(WorkloadSpec {
        name: "DynamicHTML",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 50_000.0,
        interp_exec_us: 12_000.0,
        full_speedup: 1.5,
        io_base_us: 0.0,
        io_rel_jitter: 0.0,
        io_stale_sensitivity: 1.0,
        methods: pypy_methods("render_page", "render_row", "escape"),
        kernel: Box::new(move |rng, f| {
            let rows = ((40.0 * f) as usize).max(1);
            let digits = (0..rows)
                .map(|_| html::decimal_digits(rng.gen_range(0..100_000)))
                .sum();
            let stats = render.stats(rows, digits);
            (stats.nodes_rendered + stats.lookups) as f64 + stats.bytes_out as f64 / 8.0
        }),
    })
}

/// `Compression`: zip a group of generated files — IO-dominated.
pub fn compression() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "Compression",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 60_000.0,
        interp_exec_us: 220_000.0,
        full_speedup: 2.0,
        io_base_us: 2_800_000.0,
        io_rel_jitter: 0.25,
        io_stale_sensitivity: 1.0,
        methods: pypy_methods("walk_files", "emit_tokens", "match_window"),
        kernel: Box::new(|rng, f| {
            let data = compression_files(rng, ((8_192.0 * f) as usize).max(64));
            let stats = compress::compress_stats(&data);
            stats.probes as f64 + (stats.bytes_in + stats.bytes_out) as f64 / 4.0
        }),
    })
}

/// The `bytes` of files the `Compression` benchmark zips: chunks of a
/// 50-byte phrase (probability 0.6) or of 48 random bytes, cut to length.
pub fn compression_files<R: Rng + ?Sized>(rng: &mut R, bytes: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(bytes);
    while data.len() < bytes {
        if rng.gen_bool(0.6) {
            data.extend_from_slice(b"the quick serverless function jumped over the jit ");
        } else {
            data.extend((0..48).map(|_| rng.gen::<u8>()));
        }
    }
    data.truncate(bytes);
    data
}

/// `Uploader`: upload a file from a URL to cloud storage — "entirely IO
/// and network bound since the actual computation is performed by calling
/// out to a native C library" (§5.2). The one benchmark Pronghorn loses.
pub fn uploader() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "Uploader",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 45_000.0,
        interp_exec_us: 8_000.0,
        full_speedup: 1.3,
        io_base_us: 450_000.0,
        io_rel_jitter: 0.3,
        // The uploader's process state is almost entirely long-lived
        // network sessions (source + storage connections held by the
        // native library); restored snapshots re-establish all of it.
        io_stale_sensitivity: 2.4,
        methods: pypy_methods("handle_request", "stream_chunks", "update_digest"),
        kernel: Box::new(|_rng, f| 400.0 * f),
    })
}

/// `Thumbnailer`: downscale an image — IO-dominated.
pub fn thumbnailer() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "Thumbnailer",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 55_000.0,
        interp_exec_us: 25_000.0,
        full_speedup: 2.1,
        io_base_us: 300_000.0,
        io_rel_jitter: 0.25,
        io_stale_sensitivity: 1.0,
        methods: pypy_methods("decode_image", "box_filter", "accumulate_pixel"),
        kernel: Box::new(|rng, f| {
            let scale = f.sqrt();
            let (w, h) = (
                ((96.0 * scale) as usize).max(8),
                ((72.0 * scale) as usize).max(8),
            );
            media::skip_random_image(rng, w, h);
            let stats = media::thumbnail_stats(w, h, (w / 3).max(1), (h / 3).max(1))
                .expect("valid downscale");
            (stats.pixels_read + 4 * stats.pixels_written) as f64
        }),
    })
}

/// `Video`: watermark frames and build a GIF — IO-dominated.
pub fn video() -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "Video",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 60_000.0,
        interp_exec_us: 300_000.0,
        full_speedup: 2.1,
        io_base_us: 2_500_000.0,
        io_rel_jitter: 0.25,
        io_stale_sensitivity: 1.0,
        methods: pypy_methods("demux_frames", "blend_watermark", "quantize_pixel"),
        kernel: Box::new(|rng, f| {
            let scale = f.sqrt();
            let (w, h) = (
                ((40.0 * scale) as usize).max(8),
                ((24.0 * scale) as usize).max(8),
            );
            // Six frames and the 4 × 4 watermark, three draws a pixel.
            rng.discard(3 * (6 * w * h + 16) as u64);
            let (bytes, stats) = media::gif_pipeline_stats(6, w, h, 4, 4);
            (stats.pixels_read + stats.pixels_written) as f64 + bytes as f64 / 16.0
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
    fn all_python_benchmarks_construct() {
        let benches = crate::python_benchmarks();
        assert_eq!(benches.len(), 9);
        for b in &benches {
            assert_eq!(b.kind(), RuntimeKind::PyPy);
            assert_eq!(b.method_profiles().len(), 4);
        }
    }

    #[test]
    fn compute_benchmarks_have_no_io() {
        for b in [bfs(), dfs(), mst(), pagerank(), dynamic_html()] {
            assert!(!b.io_bound(), "{} should be compute-bound", b.name());
            let mut rng = SmallRng::seed_from_u64(1);
            let req = b.generate(&mut rng, InputVariance::none());
            assert_eq!(req.io_us, 0.0);
        }
    }

    #[test]
    fn io_benchmarks_are_io_dominated() {
        for b in [compression(), uploader(), thumbnailer(), video()] {
            assert!(b.io_bound(), "{} should be IO-bound", b.name());
            let mut rng = SmallRng::seed_from_u64(2);
            let req = b.generate(&mut rng, InputVariance::none());
            assert!(req.io_us > req.interpreted_compute_us());
        }
    }

    #[test]
    fn interp_targets_are_calibrated() {
        for (b, target) in [(bfs(), 45_000.0), (dynamic_html(), 12_000.0)] {
            let mut rng = SmallRng::seed_from_u64(3);
            // Kernels have internal randomness; average a few draws.
            let mean: f64 = (0..30)
                .map(|_| {
                    b.generate(&mut rng, InputVariance::none())
                        .interpreted_compute_us()
                })
                .sum::<f64>()
                / 30.0;
            let rel = (mean - target).abs() / target;
            assert!(rel < 0.25, "{}: mean {mean} vs target {target}", b.name());
        }
    }

    #[test]
    fn dynamic_html_full_speedup_matches_figure1a() {
        let b = dynamic_html();
        for m in b.method_profiles() {
            assert!((m.tier2_speedup - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn uploader_is_most_staleness_sensitive() {
        // The uploader's process state is dominated by long-lived network
        // sessions; everything else uses the default sensitivity.
        assert!(uploader().io_stale_sensitivity() > 2.0);
        for b in [bfs(), compression(), thumbnailer(), video(), dynamic_html()] {
            assert_eq!(b.io_stale_sensitivity(), 1.0, "{}", b.name());
        }
    }

    #[test]
    fn variance_produces_wide_latency_spread() {
        let b = bfs();
        let mut rng = SmallRng::seed_from_u64(4);
        let costs: Vec<f64> = (0..300)
            .map(|_| {
                b.generate(&mut rng, InputVariance::paper())
                    .interpreted_compute_us()
            })
            .collect();
        let mut sorted = costs;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let iqr_ratio = sorted[225] / sorted[75];
        assert!(iqr_ratio > 2.0, "IQR ratio {iqr_ratio}");
    }
}
