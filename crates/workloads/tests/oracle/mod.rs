//! The reference algorithms the work-unit forms are checked against, with
//! their unit tests. The library also compiles each module into its unit
//! tests, as the `tests` module of its kernel. Each reaches the result
//! types both forms return through `super`, which imports them here.

pub mod compress;
pub mod graph;
pub mod hashing;
pub mod matrix;
pub mod media;
pub mod text;

use pronghorn_workloads::kernels::compress::CompressStats;
use pronghorn_workloads::kernels::graph::{MstResult, PageRankResult, UnionFind};
use pronghorn_workloads::kernels::media::MediaStats;
