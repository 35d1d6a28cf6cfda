//! Simulated latency of Database operations.
//!
//! The paper's Database is a Flask service reached over the pod network, so
//! each policy read/write costs a sub-millisecond round trip. Figure 7
//! shows these costs showing up as per-request and per-checkpoint
//! orchestrator overhead (off the critical path). The orchestrator charges
//! the costs below into its overhead accounting.

/// Per-operation virtual latency, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvCosts {
    /// One point read round trip (the policy state, per worker start).
    pub read_us: f64,
    /// One write round trip (the weights per request; pool and page-table
    /// metadata per checkpoint and per eviction).
    pub write_us: f64,
}

impl Default for KvCosts {
    /// Defaults calibrated to an intra-cluster HTTP key-value service like
    /// the paper's Flask Database: ~300µs reads, ~500µs writes.
    fn default() -> Self {
        KvCosts {
            read_us: 300.0,
            write_us: 500.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sub_millisecond() {
        let c = KvCosts::default();
        assert!(c.read_us > 0.0 && c.read_us < 1_000.0);
        assert!(c.write_us > 0.0 && c.write_us < 1_000.0);
    }
}
