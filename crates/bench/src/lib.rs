//! Benchmark harness support for the Criterion benches.
//!
//! The benches under `benches/` time the policy hot paths, every
//! substrate and the checkpoint codec, and run the design ablations.
//! End-to-end timing of the paper's tables and figures is the
//! `benchmark/` package's job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Invocation count for single-run benches.
pub const BENCH_INVOCATIONS: u32 = 60;
