//! The paper's serverless benchmark suite and the work each request does.
//!
//! Table 3 lists thirteen benchmarks (four Java, nine Python) drawn from
//! ServerlessBench, FaaSDom, SeBS, and the authors' HotOS'21 study; Table 1
//! adds a JSON workload. Each one is an actual algorithm (graph
//! traversals, a template engine, SHA-256, a JSON parser, an LZ77
//! compressor, image pipelines, ...) on randomized inputs, and a
//! request's work units are that algorithm's work counters. Each
//! benchmark computes them in a *work-unit form* ([`kernels`]): the same
//! random draws and the same counters, bit for bit, without building the
//! output the algorithm would discard (distances, digests, token streams,
//! HTML, word maps). The algorithms themselves live in `tests/oracle/`,
//! the oracle of a differential test (`tests/work_units.rs`); JSON,
//! Table 1 only, still runs for real. The JIT runtime simulator prices
//! the units by compilation tier, so:
//!
//! - request latency scales with the random input size ("the execution
//!   latency directly scales with the size of the random graph", §5.1);
//! - the Gaussian input noise of §5.1 produces the order-of-magnitude
//!   latency IQRs visible in Figures 4–5;
//! - IO-bound benchmarks get most of their latency from un-JIT-able IO,
//!   reproducing §5.2's compute/IO split (and the Uploader regression).
//!
//! # Examples
//!
//! ```
//! use pronghorn_workloads::{by_name, InputVariance, Workload};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let bfs = by_name("BFS").unwrap();
//! let mut rng = SmallRng::seed_from_u64(7);
//! let request = bfs.generate(&mut rng, InputVariance::paper());
//! assert!(request.interpreted_compute_us() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benches;
pub mod input;
pub mod kernels;
pub mod spec;

pub use input::InputVariance;
pub use spec::{MethodSpec, SpecWorkload, Workload, WorkloadSpec};

use benches::{java, python};

/// Builds (and calibrates) one benchmark.
type Constructor = fn() -> SpecWorkload;

/// Every benchmark by its paper name: the one table the lookup and list
/// functions build from.
const REGISTRY: [(&str, Constructor); 14] = [
    ("BFS", python::bfs),
    ("DFS", python::dfs),
    ("DynamicHTML", python::dynamic_html),
    ("MST", python::mst),
    ("PageRank", python::pagerank),
    ("Compression", python::compression),
    ("Uploader", python::uploader),
    ("Thumbnailer", python::thumbnailer),
    ("Video", python::video),
    ("HTMLRendering", java::html_rendering),
    ("MatrixMult", java::matrix_mult),
    ("Hash", java::hash),
    ("WordCount", java::word_count),
    ("JSON", java::json_bench),
];

/// The nine Python benchmarks, Figure 4 row order.
const PYTHON: [&str; 9] = [
    "BFS",
    "DFS",
    "DynamicHTML",
    "MST",
    "PageRank",
    "Compression",
    "Uploader",
    "Thumbnailer",
    "Video",
];

/// The five Java benchmarks.
const JAVA: [&str; 5] = ["HTMLRendering", "MatrixMult", "Hash", "WordCount", "JSON"];

/// Figure 5's four Java benchmarks, row order.
const FIGURE5: [&str; 4] = ["MatrixMult", "Hash", "HTMLRendering", "WordCount"];

/// Table 1's four benchmarks, column order.
const TABLE1: [&str; 4] = ["Hash", "HTMLRendering", "WordCount", "JSON"];

fn build(names: &[&str]) -> Vec<SpecWorkload> {
    names
        .iter()
        .map(|name| by_name(name).expect("registry lists every bundled name"))
        .collect()
}

/// All nine Python (PyPy) benchmarks, Figure 4 row order.
pub fn python_benchmarks() -> Vec<SpecWorkload> {
    build(&PYTHON)
}

/// All five Java (JVM) benchmarks.
pub fn java_benchmarks() -> Vec<SpecWorkload> {
    build(&JAVA)
}

/// The thirteen benchmarks of the end-to-end evaluation (Figures 4 and 5).
pub fn evaluation_benchmarks() -> Vec<SpecWorkload> {
    let mut all = python_benchmarks();
    all.extend(figure5_benchmarks());
    all
}

/// The four Java benchmarks of Figure 5, row order.
pub fn figure5_benchmarks() -> Vec<SpecWorkload> {
    build(&FIGURE5)
}

/// The four Table 1 benchmarks, column order (Hash, HTML, WordCount, JSON).
pub fn table1_benchmarks() -> Vec<SpecWorkload> {
    build(&TABLE1)
}

/// Looks up any benchmark by its paper name (case-sensitive), building
/// only that one.
pub fn by_name(name: &str) -> Option<SpecWorkload> {
    REGISTRY
        .iter()
        .find(|(registered, _)| *registered == name)
        .map(|(_, construct)| construct())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_suite_has_thirteen_benchmarks() {
        let benches = evaluation_benchmarks();
        assert_eq!(benches.len(), 13);
        let names: Vec<&str> = benches.iter().map(|b| b.name()).collect();
        for expected in [
            "BFS",
            "DFS",
            "MST",
            "DynamicHTML",
            "PageRank",
            "Uploader",
            "Thumbnailer",
            "Video",
            "Compression",
            "HTMLRendering",
            "MatrixMult",
            "Hash",
            "WordCount",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn lookup_by_name_works() {
        assert!(by_name("PageRank").is_some());
        assert!(by_name("JSON").is_some());
        assert!(by_name("NoSuchBench").is_none());
    }

    #[test]
    fn every_name_resolves_to_its_list_built_instance() {
        for listed in python_benchmarks()
            .into_iter()
            .chain(java_benchmarks())
            .chain(evaluation_benchmarks())
            .chain(table1_benchmarks())
        {
            let looked_up = by_name(listed.name()).expect("listed benchmarks resolve");
            assert_eq!(looked_up.name(), listed.name());
            assert_eq!(
                looked_up.us_per_unit().to_bits(),
                listed.us_per_unit().to_bits(),
                "{}",
                listed.name()
            );
        }
        for (name, _) in REGISTRY {
            assert_eq!(by_name(name).expect("registered").name(), name);
        }
        assert_eq!(
            python_benchmarks().len() + java_benchmarks().len(),
            REGISTRY.len()
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = python_benchmarks()
            .iter()
            .chain(java_benchmarks().iter())
            .map(|b| b.name().to_string())
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
