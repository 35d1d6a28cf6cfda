//! The work-unit forms of the benchmark suite's algorithms.
//!
//! Every benchmark in Table 3 (plus Table 1's JSON workload) is an actual
//! algorithm on randomized input, and its work counters become the
//! request's JIT work units, so latency scales with input size the way the
//! paper's graph-based benchmarks do. The benchmarks call a form of each
//! algorithm that makes the same random draws and returns the same
//! counters without building the discarded output ([`graph::EdgeList`],
//! [`compress::compress_stats`], [`html::IntListRender`],
//! [`media::thumbnail_stats`], ...). The algorithms are the oracle those
//! forms are tested against, in `tests/oracle/`; only the template engine
//! (which measures [`html::IntListRender`]) and JSON still run here.

pub mod compress;
pub mod graph;
pub mod hashing;
pub mod html;
pub mod json;
pub mod matrix;
pub mod media;
pub mod text;
