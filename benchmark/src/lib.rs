//! The repository benchmark: four named workloads driven through the
//! public runners of `pronghorn-platform`, end-to-end metrics from
//! untraced repetitions, and per-layer metrics from a traced repetition
//! whose spans are recorded on the benchmark's side of each call.
//!
//! See `README.md` beside this crate for the workloads, the metric table
//! and the comparison procedure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod rep;
pub mod report;
pub mod stats;
pub mod trace;
