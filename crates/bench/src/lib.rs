//! The Criterion benches of the workspace; this library is empty.
//!
//! The benches under `benches/` time the policy hot paths, every
//! substrate and the checkpoint codec. The design ablations are
//! `experiments ablations`, and end-to-end timing of the paper's tables
//! and figures is the `benchmark/` package's job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
