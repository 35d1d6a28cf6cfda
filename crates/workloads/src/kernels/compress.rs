//! The work-unit form of an LZ77-style compressor.
//!
//! Backs the `Compression` benchmark (Table 3: "create a .zip file for a
//! group of files in storage"). The reference (`tests/oracle/compress.rs`)
//! emits literal runs and `(distance, length)` back-references found
//! through a hash-chained window search; its match-search probe counts
//! are the work units, which [`compress_stats`] counts without emitting.

/// Compression work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompressStats {
    /// Input bytes consumed.
    pub bytes_in: usize,
    /// Output bytes produced.
    pub bytes_out: usize,
    /// Back-reference matches emitted.
    pub matches: usize,
    /// Literal bytes emitted.
    pub literals: usize,
    /// Hash-chain probes performed (inner-loop work).
    pub probes: usize,
}

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
const WINDOW: usize = 8 * 1024;
const HASH_BITS: usize = 12;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// The counters the reference compressor returns for `input`, without
/// building the token stream.
///
/// The hash-chain search is the reference's, probe for probe. A candidate
/// is compared only if it matches at the best length so far (zlib's
/// pre-check: otherwise it cannot beat the best match), and the match
/// extension compares 8 bytes at a time. `bytes_out` is counted: each
/// flushed literal run of `L` bytes costs `L` plus a 2-byte header per
/// started 255-byte chunk, each match 4 bytes.
///
/// The chain links live in a ring of at most `WINDOW` positions, not one
/// per input byte: a chain is only followed to positions within `WINDOW`
/// of the current one, and in a longer input a position's slot is next
/// written by the position `WINDOW` after it, once that one's search is
/// done. The scratch memory is then bounded whatever the input's length.
pub fn compress_stats(input: &[u8]) -> CompressStats {
    let mut stats = CompressStats {
        bytes_in: input.len(),
        ..CompressStats::default()
    };
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let ring = input.len().clamp(1, WINDOW).next_power_of_two();
    let mut prev = vec![usize::MAX; ring];
    let link = ring - 1;
    let mut run = 0usize;
    let flush = |run: &mut usize, stats: &mut CompressStats| {
        stats.bytes_out += *run + 2 * run.div_ceil(255);
        stats.literals += *run;
        *run = 0;
    };
    let mut pos = 0usize;
    while pos < input.len() {
        let mut best_len = 0usize;
        if pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let max = (input.len() - pos).min(MAX_MATCH);
            let mut candidate = head[h];
            let mut chain = 0;
            while candidate != usize::MAX && pos - candidate <= WINDOW && chain < 32 {
                stats.probes += 1;
                if best_len < max && input[candidate + best_len] == input[pos + best_len] {
                    let len = common_prefix(&input[candidate..], &input[pos..], max);
                    best_len = best_len.max(len);
                }
                candidate = prev[candidate & link];
                chain += 1;
            }
            prev[pos & link] = head[h];
            head[h] = pos;
        }
        if best_len >= MIN_MATCH {
            flush(&mut run, &mut stats);
            stats.bytes_out += 4;
            stats.matches += 1;
            for p in pos + 1..(pos + best_len).min(input.len().saturating_sub(MIN_MATCH)) {
                let h = hash4(&input[p..]);
                prev[p & link] = head[h];
                head[h] = p;
            }
            pos += best_len;
        } else {
            run += 1;
            pos += 1;
        }
    }
    flush(&mut run, &mut stats);
    stats
}

/// Length of the common prefix of `a` and `b`, capped at `max`; both are
/// at least `max` long.
fn common_prefix(a: &[u8], b: &[u8], max: usize) -> usize {
    let mut len = 0;
    while len + 8 <= max {
        let x = u64::from_le_bytes(a[len..len + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[len..len + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && a[len] == b[len] {
        len += 1;
    }
    len
}

#[cfg(test)]
#[path = "../../tests/oracle/compress.rs"]
mod tests;
