//! The simulated latency of the paper's Database component.
//!
//! Pronghorn's implementation (§4) keeps the orchestration-policy weights
//! and snapshot metadata in "a lightweight implementation of a
//! general-purpose key-value store ... exposing only strongly-consistent
//! atomic read and write operations", so that separate orchestrator
//! processes can share them. Here every deployment owns exactly one
//! orchestrator, which keeps θ in its policy, so no stored copy is needed:
//! what Figure 7 measures of the Database is its round-trip latency, and
//! that is all this crate models.
//!
//! - [`KvCosts`]: the simulated latency of each operation, charged by the
//!   orchestrator into the Figure 7 overhead accounting.
//!
//! # Examples
//!
//! ```
//! use pronghorn_kv::KvCosts;
//!
//! let costs = KvCosts::default();
//! // One request's weight write costs a sub-millisecond round trip.
//! assert!(costs.write_us > 0.0 && costs.write_us < 1_000.0);
//! assert_eq!(KvCosts::free().read_us, 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;

pub use costs::KvCosts;
