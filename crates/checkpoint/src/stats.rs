//! Encode-path performance counters.
//!
//! Counters are purely observational: they record real wall-clock time and
//! byte counts spent on the checkpoint fast path, and never feed back into
//! simulated behavior. A fixed-seed run therefore produces bit-identical
//! simulation results regardless of how fast the host encodes.

/// Wall-clock and byte accounting for the checkpoint encode path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecStats {
    /// Full state encodes performed.
    pub encodes: u64,
    /// Encodes skipped. Always 0, since every checkpoint encodes afresh;
    /// the benchmark package still reports it.
    pub encode_skips: u64,
    /// Payload bytes produced by full encodes.
    pub bytes_encoded: u64,
    /// Payload bytes of skipped encodes. Always 0, like
    /// [`Self::encode_skips`].
    pub bytes_skipped: u64,
    /// Buffer allocations avoided. Always 0: no code path counts them.
    pub allocations_avoided: u64,
    /// Wall-clock nanoseconds spent encoding process state.
    pub encode_ns: u64,
    /// Wall-clock nanoseconds spent hashing payloads (checksum + content
    /// address, one fused pass).
    pub checksum_ns: u64,
    /// Checkpoints persisted as page deltas against a parent snapshot.
    pub delta_encodes: u64,
    /// Physical payload bytes written by delta checkpoints (changed pages
    /// only — compare `bytes_encoded` for the full-encode equivalent).
    pub delta_bytes_written: u64,
    /// Changed pages written across all delta checkpoints.
    pub delta_pages_written: u64,
    /// Total payload pages scanned while diffing (changed + unchanged);
    /// `delta_pages_written / delta_pages_total` is the dirty ratio.
    pub delta_pages_total: u64,
}

impl CodecStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &CodecStats) {
        self.encodes += other.encodes;
        self.encode_skips += other.encode_skips;
        self.bytes_encoded += other.bytes_encoded;
        self.bytes_skipped += other.bytes_skipped;
        self.allocations_avoided += other.allocations_avoided;
        self.encode_ns += other.encode_ns;
        self.checksum_ns += other.checksum_ns;
        self.delta_encodes += other.delta_encodes;
        self.delta_bytes_written += other.delta_bytes_written;
        self.delta_pages_written += other.delta_pages_written;
        self.delta_pages_total += other.delta_pages_total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = CodecStats {
            encodes: 1,
            encode_skips: 2,
            bytes_encoded: 3,
            bytes_skipped: 4,
            allocations_avoided: 5,
            encode_ns: 6,
            checksum_ns: 7,
            delta_encodes: 8,
            delta_bytes_written: 9,
            delta_pages_written: 10,
            delta_pages_total: 11,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            CodecStats {
                encodes: 2,
                encode_skips: 4,
                bytes_encoded: 6,
                bytes_skipped: 8,
                allocations_avoided: 10,
                encode_ns: 12,
                checksum_ns: 14,
                delta_encodes: 16,
                delta_bytes_written: 18,
                delta_pages_written: 20,
                delta_pages_total: 22,
            }
        );
    }
}
