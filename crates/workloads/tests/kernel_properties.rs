//! Property-based tests for the benchmark kernels.
//!
//! The benchmarks price requests with work-unit forms, and `work_units.rs`
//! checks those against the real algorithms in `oracle/`; these properties
//! pin the algorithms (and the library's template engine and JSON) on
//! arbitrary inputs, not just the unit-test vectors.

#![forbid(unsafe_code)]

mod oracle;

use oracle::{compress, graph, hashing, media, text};
use pronghorn_workloads::kernels::{html, json};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

proptest! {
    /// LZ77 compression is lossless on arbitrary byte strings.
    #[test]
    fn compression_round_trips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let (packed, stats) = compress::compress(&data);
        let unpacked = compress::decompress(&packed).unwrap();
        prop_assert_eq!(unpacked, data);
        prop_assert!(stats.literals <= stats.bytes_in);
        prop_assert_eq!(stats.bytes_out, packed.len());
        // Worst-case expansion is bounded: 2 framing bytes per 255-byte
        // literal run.
        prop_assert!(stats.bytes_out <= stats.bytes_in + stats.bytes_in / 128 + 4);
    }

    /// Compression is lossless on highly repetitive inputs (the match-heavy
    /// path) and actually compresses them.
    #[test]
    fn compression_shrinks_repetitive_input(byte in any::<u8>(), len in 256usize..4096) {
        let data = vec![byte; len];
        let (packed, _) = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&packed).unwrap(), data);
        prop_assert!(packed.len() < len / 4);
    }

    /// The decompressor never panics on arbitrary (mostly invalid) streams.
    #[test]
    fn decompressor_never_panics(stream in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = compress::decompress(&stream);
    }

    /// SHA-256 incremental hashing equals one-shot for any chunking.
    #[test]
    fn sha256_chunking_is_invisible(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..97,
    ) {
        let mut h = hashing::Sha256::new();
        for c in data.chunks(chunk) {
            h.update(c);
        }
        prop_assert_eq!(h.finalize().0, hashing::sha256(&data));
    }

    /// The JSON parser never panics on arbitrary input strings.
    #[test]
    fn json_parser_never_panics(input in ".{0,256}") {
        let _ = json::parse(&input);
    }

    /// Randomly generated JSON documents serialize and re-parse exactly.
    #[test]
    fn json_documents_round_trip(seed in any::<u64>(), size in 1usize..400) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let doc = json::random_document(&mut rng, size);
        let (serialized, _) = json::serialize(&doc);
        let (parsed, stats) = json::parse(&serialized).unwrap();
        prop_assert_eq!(parsed, doc);
        prop_assert!(stats.nodes >= 1);
        prop_assert_eq!(stats.bytes, serialized.len());
    }

    /// The template engine never panics: parse errors are values, and any
    /// template that parses renders against any flat context.
    #[test]
    fn template_engine_never_panics(source in ".{0,128}", key in "[a-z]{1,6}", value in ".{0,16}") {
        if let Ok(template) = html::Template::parse(&source) {
            let mut ctx = HashMap::new();
            ctx.insert(key, html::Value::Text(value));
            let _ = template.render(&ctx);
        }
    }

    /// Rendered variable substitution always escapes the dangerous four.
    #[test]
    fn rendered_text_is_escaped(value in ".{0,64}") {
        let template = html::Template::parse("{{ v }}").unwrap();
        let mut ctx = HashMap::new();
        ctx.insert("v".to_string(), html::Value::Text(value));
        let (out, _) = template.render(&ctx).unwrap();
        prop_assert!(!out.contains('<'));
        prop_assert!(!out.contains('>'));
        prop_assert!(!out.contains('"'));
    }

    /// Random graphs are connected and traversals agree on coverage.
    #[test]
    fn traversals_cover_connected_graphs(seed in any::<u64>(), n in 1usize..400, extra in 0usize..400) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = graph::Graph::random(&mut rng, n, extra);
        let (dist, bfs_stats) = graph::bfs(&g);
        let (order, dfs_stats) = graph::dfs(&g);
        prop_assert_eq!(bfs_stats.nodes_visited, g.node_count());
        prop_assert_eq!(dfs_stats.nodes_visited, g.node_count());
        prop_assert_eq!(order.len(), g.node_count());
        prop_assert!(dist.iter().all(|&d| d != u32::MAX));
    }

    /// Kruskal produces a spanning tree: n-1 edges, weight no larger than
    /// any spanning structure implied by the tree-plus-extras construction.
    #[test]
    fn mst_spans_with_minimal_edge_count(seed in any::<u64>(), n in 2usize..300) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = graph::Graph::random(&mut rng, n, n / 2);
        let result = graph::mst_kruskal(&g);
        prop_assert_eq!(result.tree_edges, n - 1);
        prop_assert!(result.edges_examined <= g.edge_count());
        // Total weight is bounded by (n-1) * max edge weight.
        prop_assert!(result.total_weight <= (n as u64 - 1) * 1_000);
    }

    /// PageRank is a probability distribution on any graph.
    #[test]
    fn pagerank_is_a_distribution(seed in any::<u64>(), n in 1usize..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = graph::Graph::random(&mut rng, n, n);
        let result = graph::pagerank(&g, 50, 1e-9);
        let sum: f64 = result.ranks.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        prop_assert!(result.ranks.iter().all(|&r| r >= 0.0));
    }

    /// Word counting conserves tokens: the sum of all counts equals the
    /// token count, and generation produces exactly the requested words.
    #[test]
    fn word_count_conserves_tokens(seed in any::<u64>(), words in 0usize..2000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let prose = text::generate_text(&mut rng, words);
        let wc = text::word_count(&prose);
        prop_assert_eq!(wc.tokens, words);
        if words > 0 {
            let (_, top_count) = wc.top.unwrap();
            prop_assert!(top_count <= words);
            prop_assert!(wc.distinct <= words);
        }
    }

    /// Thumbnailing preserves the dynamic range: every output channel lies
    /// within the input's min/max (box filtering is an average).
    #[test]
    fn thumbnail_stays_in_range(seed in any::<u64>(), w in 8usize..64, h in 8usize..64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let img = media::Image::random(&mut rng, w, h);
        let (mut lo, mut hi) = (255u8, 0u8);
        for y in 0..h {
            for x in 0..w {
                for c in img.get(x, y) {
                    lo = lo.min(c);
                    hi = hi.max(c);
                }
            }
        }
        let (thumb, _) = media::thumbnail(&img, (w / 2).max(1), (h / 2).max(1)).unwrap();
        for y in 0..thumb.height() {
            for x in 0..thumb.width() {
                for c in thumb.get(x, y) {
                    prop_assert!(c >= lo && c <= hi);
                }
            }
        }
    }
}
