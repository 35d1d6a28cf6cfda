//! Differential tests of the benchmarks' work-unit forms.
//!
//! Each benchmark's `kernel` computes its work units without building the
//! output its algorithm would discard. The reference functions below are
//! the kernels as they were when they still ran the real algorithms (now
//! in `oracle/`), kept verbatim: for every seed and size factor, a kernel
//! must return the reference's `f64` bit for bit and leave the generator
//! in the same state. The edge cases at the end pin the closed forms where
//! they are easiest to get wrong.

#![forbid(unsafe_code)]

mod oracle;

use oracle::{compress, graph, hashing, matrix, media, text};
use pronghorn_workloads::kernels::compress::compress_stats;
use pronghorn_workloads::kernels::graph::{random_edge_count, EdgeList};
use pronghorn_workloads::kernels::media::{gif_pipeline_stats, skip_random_image, thumbnail_stats};
use pronghorn_workloads::kernels::text::generated_text_len;
use pronghorn_workloads::kernels::{hashing::sha256_blocks, html, matrix::skip_random};
use pronghorn_workloads::{by_name, InputVariance, SpecWorkload, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// A kernel's signature: `(rng, size_factor) -> raw work units`.
type Kernel = fn(&mut dyn RngCore, f64) -> f64;

// Reference kernels, verbatim.

fn bfs(rng: &mut dyn RngCore, f: f64) -> f64 {
    let n = ((600.0 * f) as usize).max(2);
    let g = graph::Graph::random(rng, n, n);
    let (_, stats) = graph::bfs(&g);
    (stats.edges_scanned + 2 * stats.nodes_visited) as f64
}

fn dfs(rng: &mut dyn RngCore, f: f64) -> f64 {
    let n = ((500.0 * f) as usize).max(2);
    let g = graph::Graph::random(rng, n, n);
    let (_, stats) = graph::dfs(&g);
    (stats.edges_scanned + stats.nodes_visited) as f64
}

fn mst(rng: &mut dyn RngCore, f: f64) -> f64 {
    let n = ((400.0 * f) as usize).max(2);
    let g = graph::Graph::random(rng, n, 2 * n);
    let r = graph::mst_kruskal(&g);
    let m = r.edges_examined.max(2) as f64;
    m * m.log2() + 3.0 * r.find_steps as f64
}

fn pagerank(rng: &mut dyn RngCore, f: f64) -> f64 {
    let n = ((250.0 * f) as usize).max(2);
    let g = graph::Graph::random(rng, n, 3 * n);
    let r = graph::pagerank(&g, 25, 1e-7);
    (r.edge_updates + r.iterations * n) as f64
}

fn dynamic_html(rng: &mut dyn RngCore, f: f64) -> f64 {
    let rows = ((40.0 * f) as usize).max(1);
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
    ctx.insert(
        "rows".to_string(),
        html::Value::List(
            (0..rows)
                .map(|_| html::Value::Number(f64::from(rng.gen_range(0..100_000))))
                .collect(),
        ),
    );
    let (_, stats) = template.render(&ctx).expect("static template renders");
    (stats.nodes_rendered + stats.lookups) as f64 + stats.bytes_out as f64 / 8.0
}

fn compression(rng: &mut dyn RngCore, f: f64) -> f64 {
    let bytes = ((8_192.0 * f) as usize).max(64);
    let mut data = Vec::with_capacity(bytes);
    while data.len() < bytes {
        if rng.gen_bool(0.6) {
            data.extend_from_slice(b"the quick serverless function jumped over the jit ");
        } else {
            data.extend((0..48).map(|_| rng.gen::<u8>()));
        }
    }
    data.truncate(bytes);
    let (_, stats) = compress::compress(&data);
    stats.probes as f64 + (stats.bytes_in + stats.bytes_out) as f64 / 4.0
}

fn thumbnailer(rng: &mut dyn RngCore, f: f64) -> f64 {
    let scale = f.sqrt();
    let (w, h) = (
        ((96.0 * scale) as usize).max(8),
        ((72.0 * scale) as usize).max(8),
    );
    let img = media::Image::random(rng, w, h);
    let (_, stats) =
        media::thumbnail(&img, (w / 3).max(1), (h / 3).max(1)).expect("valid downscale");
    (stats.pixels_read + 4 * stats.pixels_written) as f64
}

fn video(rng: &mut dyn RngCore, f: f64) -> f64 {
    let scale = f.sqrt();
    let (w, h) = (
        ((40.0 * scale) as usize).max(8),
        ((24.0 * scale) as usize).max(8),
    );
    let mut frames: Vec<media::Image> = (0..6).map(|_| media::Image::random(rng, w, h)).collect();
    let mark = media::Image::random(rng, 4, 4);
    let (bytes, stats) = media::gif_pipeline(&mut frames, &mark);
    (stats.pixels_read + stats.pixels_written) as f64 + bytes as f64 / 16.0
}

fn html_rendering(rng: &mut dyn RngCore, f: f64) -> f64 {
    let rows = ((120.0 * f) as usize).max(1);
    let template = html::Template::parse(
        "<table>{% for row in rows %}<tr><td>{{ row }}</td>\
         <td>{% if hot %}{{ label }}{% end %}</td></tr>{% end %}</table>",
    )
    .expect("static template parses");
    let mut ctx = HashMap::new();
    ctx.insert("hot".to_string(), html::Value::Number(1.0));
    ctx.insert("label".to_string(), html::Value::Text("r&d".into()));
    ctx.insert(
        "rows".to_string(),
        html::Value::List(
            (0..rows)
                .map(|_| html::Value::Number(f64::from(rng.gen_range(0..1_000_000))))
                .collect(),
        ),
    );
    let (_, stats) = template.render(&ctx).expect("static template renders");
    (stats.nodes_rendered + stats.lookups + stats.chars_escaped) as f64
        + stats.bytes_out as f64 / 8.0
}

fn matrix_mult(rng: &mut dyn RngCore, f: f64) -> f64 {
    // Latency scales with f (cube of the linear dimension).
    let n = ((24.0 * f.cbrt()) as usize).max(2);
    let a = matrix::Matrix::random(rng, n, n);
    let b = matrix::Matrix::random(rng, n, n);
    let (_, flops) = a.multiply(&b).expect("square matrices multiply");
    flops as f64
}

fn hash(rng: &mut dyn RngCore, f: f64) -> f64 {
    let bytes = ((8_192.0 * f) as usize).max(64);
    let mut data = vec![0u8; bytes];
    rng.fill_bytes(&mut data);
    let mut h = hashing::Sha256::new();
    h.update(&data);
    let (_, blocks) = h.finalize();
    let _ = hashing::adler32(&data);
    blocks as f64 * 64.0 + bytes as f64 / 8.0
}

fn word_count(rng: &mut dyn RngCore, f: f64) -> f64 {
    let words = ((800.0 * f) as usize).max(1);
    let text = text::generate_text(rng, words);
    let wc = text::word_count(&text);
    (4 * wc.tokens) as f64 + wc.bytes as f64 / 4.0
}

/// Every benchmark whose kernel has a work-unit form, with its reference.
const REFERENCES: &[(&str, Kernel)] = &[
    ("BFS", bfs),
    ("DFS", dfs),
    ("MST", mst),
    ("PageRank", pagerank),
    ("DynamicHTML", dynamic_html),
    ("Compression", compression),
    ("Thumbnailer", thumbnailer),
    ("Video", video),
    ("HTMLRendering", html_rendering),
    ("MatrixMult", matrix_mult),
    ("Hash", hash),
    ("WordCount", word_count),
];

/// Runs `bench`'s kernel and `reference` from the same generator state
/// and asserts equal units (bit for bit) and equal generator states after.
fn assert_matches(bench: &SpecWorkload, reference: Kernel, seed: u64, f: f64) {
    let name = bench.name();
    let mut kernel_rng = SmallRng::seed_from_u64(seed);
    let mut reference_rng = kernel_rng.clone();
    let got = (bench.spec().kernel)(&mut kernel_rng, f);
    let want = reference(&mut reference_rng, f);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{name}: seed {seed}, factor {f}: {got} != {want}"
    );
    assert_eq!(
        kernel_rng, reference_rng,
        "{name}: seed {seed}, factor {f}: generator states differ"
    );
}

/// Every benchmark of [`REFERENCES`], built once.
fn benches() -> Vec<(SpecWorkload, Kernel)> {
    REFERENCES
        .iter()
        .map(|&(name, reference)| (by_name(name).expect("bundled benchmark"), reference))
        .collect()
}

/// One bundled benchmark.
fn bench(name: &str) -> SpecWorkload {
    by_name(name).expect("bundled benchmark")
}

/// Checks every kernel against its reference on `seeds` at factor `f`.
fn assert_all_match_at(seeds: std::ops::Range<u64>, f: impl Fn(u64) -> f64) {
    let benches = benches();
    for seed in seeds {
        for (bench, reference) in &benches {
            assert_matches(bench, *reference, seed, f(seed));
        }
    }
}

#[test]
fn kernels_match_at_the_lower_clamp() {
    assert_all_match_at(0..300, |_| 0.08);
}

#[test]
fn kernels_match_at_the_base_size() {
    assert_all_match_at(0..300, |_| 1.0);
}

// The upper clamp is the slowest reference run; two halves run in
// parallel.
#[test]
fn kernels_match_at_the_upper_clamp_seeds_0_to_149() {
    assert_all_match_at(0..150, |_| 12.0);
}

#[test]
fn kernels_match_at_the_upper_clamp_seeds_150_to_299() {
    assert_all_match_at(150..300, |_| 12.0);
}

#[test]
fn kernels_match_at_paper_variance_factors() {
    assert_all_match_at(0..300, |seed| {
        InputVariance::paper().sample_factor(&mut SmallRng::seed_from_u64(!seed))
    });
}

#[test]
fn kernels_match_at_their_minimum_sizes() {
    // Factor 0 pins every size to its floor: 2-node graphs, 1 HTML row,
    // 64 hash bytes, 1 word, 8 × 8 images, 2 × 2 matrices.
    assert_all_match_at(0..300, |_| 0.0);
}

#[test]
fn calibration_is_unchanged() {
    // `SpecWorkload::new` calibrates on five kernel draws at factor 1.0
    // from a fixed seed; the median must be the reference's.
    for (bench, reference) in benches() {
        let mut rng = SmallRng::seed_from_u64(0x5eed_ca1b);
        let mut samples: Vec<f64> = (0..5).map(|_| reference(&mut rng, 1.0)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let share_sum: f64 = bench.spec().methods.iter().map(|m| m.share).sum();
        let us_per_unit = bench.spec().interp_exec_us / (samples[2] * share_sum);
        assert_eq!(
            bench.us_per_unit().to_bits(),
            us_per_unit.to_bits(),
            "{}",
            bench.name()
        );
    }
}

/// Asserts that `edges` gives the reference's MST and PageRank on `g`,
/// bit for bit.
fn assert_edge_list_matches(g: &graph::Graph, edges: &EdgeList, iters: usize, tol: f64) {
    assert_eq!(edges.mst_kruskal(), graph::mst_kruskal(g));
    let (want, got) = (graph::pagerank(g, iters, tol), edges.pagerank(iters, tol));
    assert_eq!(got.iterations, want.iterations);
    assert_eq!(got.edge_updates, want.edge_updates);
    let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.ranks), bits(&want.ranks));
}

#[test]
fn two_node_graphs() {
    for seed in 0..200u64 {
        for extra in [0, 1, 2, 4, 8] {
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = a.clone();
            let mut c = a.clone();
            let g = graph::Graph::random(&mut a, 2, extra);
            let edges = EdgeList::random(&mut b, 2, extra);
            let count = random_edge_count(&mut c, 2, extra);
            assert_eq!(a, b);
            assert_eq!(a, c);
            assert_eq!(count, g.edge_count());
            assert_eq!(edges.edge_count(), g.edge_count());
            assert_edge_list_matches(&g, &edges, 25, 1e-7);
            // Connected: a traversal scans every directed edge once.
            assert_eq!(graph::bfs(&g).1.edges_scanned, 2 * count);
            assert_eq!(graph::dfs(&g).1.edges_scanned, 2 * count);
        }
    }
}

#[test]
fn edge_list_forms_match_on_single_node_and_dense_graphs() {
    for seed in 0..50u64 {
        for (n, extra) in [(1, 0), (1, 5), (3, 30), (40, 400)] {
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = a.clone();
            let g = graph::Graph::random(&mut a, n, extra);
            let edges = EdgeList::random(&mut b, n, extra);
            assert_eq!(a, b);
            assert_edge_list_matches(&g, &edges, 50, 1e-9);
        }
    }
}

#[test]
fn hash_blocks_at_the_padding_boundary() {
    // The 0x80 marker and the 8-byte length fit after 55 bytes of a block
    // but not after 56.
    for len in 0..=300u64 {
        let data = vec![0xa5u8; len as usize];
        let mut h = hashing::Sha256::new();
        h.update(&data);
        assert_eq!(sha256_blocks(len), h.finalize().1, "len {len}");
    }
    assert_eq!(sha256_blocks(55), 1);
    assert_eq!(sha256_blocks(56), 2);
    assert_eq!(sha256_blocks(64), 2);
    // Through the kernel: `bytes = 8192 f` is exact for f = bytes / 8192.
    let hash_bench = bench("Hash");
    for bytes in [64u32, 119, 120, 8_192 + 55, 8_192 + 56, 64 * 200 + 55] {
        let f = f64::from(bytes) / 8_192.0;
        for seed in 0..20u64 {
            assert_matches(&hash_bench, hash, seed, f);
        }
    }
}

#[test]
fn word_count_single_word_and_sentence_endings() {
    // A text whose last word ends a sentence gets no closing dot; then the
    // text of one more word (same draws first) extends it by a space.
    let word_bench = bench("WordCount");
    let (mut on_sentence, mut mid_sentence) = (0, 0);
    for seed in 0..400u64 {
        for words in [0, 1, 2, 5, 14, 15, 40] {
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = a.clone();
            let prose = text::generate_text(&mut a, words);
            assert_eq!(generated_text_len(&mut b, words), prose.len());
            assert_eq!(a, b);
            assert_eq!(text::word_count(&prose).tokens, words);
            let longer = text::generate_text(&mut SmallRng::seed_from_u64(seed), words + 1);
            if words > 0 && longer.starts_with(&format!("{prose} ")) {
                on_sentence += 1;
            } else {
                mid_sentence += 1;
            }
        }
        // One word: factor below 1/800 floors `words` to 0, then to 1.
        assert_matches(&word_bench, word_count, seed, 0.5 / 800.0);
        assert_matches(&word_bench, word_count, seed, 1.0 / 800.0);
    }
    assert!(on_sentence > 0 && mid_sentence > 0);
}

#[test]
fn eight_by_eight_images() {
    for (w, h) in [(8, 8), (9, 8), (8, 11), (30, 17)] {
        let mut rng = SmallRng::seed_from_u64(w as u64 * 100 + h as u64);
        let mut skipped = rng.clone();
        let img = media::Image::random(&mut rng, w, h);
        skip_random_image(&mut skipped, w, h);
        assert_eq!(rng, skipped);
        for (ow, oh) in [(w / 3, h / 3), (w, h), (1, 1), (w / 2, h)] {
            let real = media::thumbnail(&img, ow, oh).map(|(_, stats)| stats);
            assert_eq!(thumbnail_stats(w, h, ow, oh), real, "{w}x{h} -> {ow}x{oh}");
        }
        assert_eq!(thumbnail_stats(w, h, w + 1, h), None);
    }
    // The 4 × 4 watermark at (4, 4) fits an 8 × 8 frame exactly, and is
    // clipped in smaller ones.
    for (w, h) in [(8, 8), (7, 9), (4, 6), (3, 3), (20, 5)] {
        let mut rng = SmallRng::seed_from_u64(w as u64 * 100 + h as u64);
        let mut frames: Vec<media::Image> = (0..6)
            .map(|_| media::Image::random(&mut rng, w, h))
            .collect();
        let mark = media::Image::random(&mut rng, 4, 4);
        let real = media::gif_pipeline(&mut frames, &mark);
        assert_eq!(gif_pipeline_stats(6, w, h, 4, 4), real, "{w}x{h}");
    }
    let (thumb_bench, video_bench) = (bench("Thumbnailer"), bench("Video"));
    for seed in 0..50u64 {
        assert_matches(&thumb_bench, thumbnailer, seed, 0.0);
        assert_matches(&video_bench, video, seed, 0.0);
    }
}

#[test]
fn html_numbers_at_digit_boundaries() {
    for (n, digits) in [
        (0, 1),
        (9, 1),
        (10, 2),
        (99_999, 5),
        (100_000, 6),
        (999_999, 6),
    ] {
        assert_eq!(html::decimal_digits(n), digits, "{n}");
    }
    let template = html::Template::parse(
        "<table>{% for row in rows %}<tr><td>{{ row }}</td>\
         <td>{% if hot %}{{ label }}{% end %}</td></tr>{% end %}</table>",
    )
    .expect("static template parses");
    let mut ctx = HashMap::new();
    ctx.insert("hot".to_string(), html::Value::Number(1.0));
    ctx.insert("label".to_string(), html::Value::Text("r&d".into()));
    let form = html::IntListRender::measure(&template, &ctx, "rows").expect("renders");
    for rows in [
        vec![0u32],
        vec![99_999],
        vec![999_999],
        vec![0, 99_999, 999_999, 7, 100_000],
        vec![],
    ] {
        let digits = rows.iter().map(|&n| html::decimal_digits(n)).sum();
        ctx.insert(
            "rows".to_string(),
            html::Value::List(
                rows.iter()
                    .map(|&n| html::Value::Number(f64::from(n)))
                    .collect(),
            ),
        );
        let (_, real) = template.render(&ctx).expect("renders");
        assert_eq!(form.stats(rows.len(), digits), real, "{rows:?}");
    }
}

#[test]
fn compression_stats_match_on_edge_inputs() {
    let mut rng = SmallRng::seed_from_u64(11);
    let noise: Vec<u8> = (0..3_000).map(|_| rng.gen()).collect();
    let inputs: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"abc".to_vec(),
        b"abcd".to_vec(),
        vec![b'x'; 4_000],
        b"serverless ".repeat(500),
        noise.clone(),
        // 255- and 256-byte literal runs around one match.
        [&noise[..255], b"abcdabcd", &noise[255..511]].concat(),
        // Longer than the chain ring (`2 × WINDOW`), so its slots wrap:
        // a long repetition, and mixed text and noise at the 12× clamp.
        b"serverless ".repeat(5_000),
        (0..2_048)
            .flat_map(|k| match k % 3 {
                0 => noise[k % 2_000..k % 2_000 + 48].to_vec(),
                _ => b"the quick serverless function jumped over the jit ".to_vec(),
            })
            .take(12 * 8_192)
            .collect(),
    ];
    for input in &inputs {
        assert_eq!(compress_stats(input), compress::compress(input).1);
    }
}

#[test]
fn image_skips_above_the_jump_crossover() {
    // `SmallRng::discard` steps below 2,048 draws and jumps above, so
    // these sizes take the jump: base-size Thumbnailer and Video frames,
    // an upper-clamp Thumbnailer image, and 2,106 draws, just above.
    for (w, h) in [(96, 72), (40, 24), (333, 249), (26, 27)] {
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut skipped = rng.clone();
            media::Image::random(&mut rng, w, h);
            skip_random_image(&mut skipped, w, h);
            assert_eq!(rng, skipped, "{w}x{h}, seed {seed}");
        }
    }
}

#[test]
fn matrix_skip_makes_the_draws_of_random() {
    // 46 × 46 and 100 × 100 are above the jump crossover.
    for n in [1, 2, 7, 46, 100] {
        let mut a = SmallRng::seed_from_u64(n as u64);
        let mut b = a.clone();
        let m = matrix::Matrix::random(&mut a, n, n);
        skip_random(&mut b, n, n);
        assert_eq!(a, b);
        assert_eq!(m.multiply(&m).expect("square").1, n * n * n);
    }
}
