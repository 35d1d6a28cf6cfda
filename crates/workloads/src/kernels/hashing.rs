//! The work-unit form of SHA-256.
//!
//! Backs the `Hash` benchmark (Table 3: "checksum of a large random bytes
//! array"): the compression blocks SHA-256 processes are the work unit.
//! The reference FIPS 180-4 SHA-256 is the test oracle in
//! `tests/oracle/hashing.rs`.

/// The compression-block count SHA-256 processes for a `len`-byte
/// message: the message, the `0x80` marker and the 8-byte length,
/// zero-padded to whole 64-byte blocks.
pub fn sha256_blocks(len: u64) -> u64 {
    (len + 9).div_ceil(64)
}

#[cfg(test)]
#[path = "../../tests/oracle/hashing.rs"]
mod tests;
