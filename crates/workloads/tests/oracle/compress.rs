//! The reference LZ77 compressor and decompressor. The match-search
//! constants and hash copy the library's private ones; the differential
//! tests catch drift.

use super::CompressStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
const WINDOW: usize = 8 * 1024;
const HASH_BITS: usize = 12;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input`, returning the token stream and work counters.
///
/// Token format: `0x00 len <len literal bytes>` or
/// `0x01 dist_hi dist_lo len` (big-endian 16-bit distance).
pub fn compress(input: &[u8]) -> (Vec<u8>, CompressStats) {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut stats = CompressStats {
        bytes_in: input.len(),
        ..CompressStats::default()
    };
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; input.len()];
    let mut literals: Vec<u8> = Vec::new();
    let mut pos = 0usize;

    let flush_literals = |literals: &mut Vec<u8>, out: &mut Vec<u8>, stats: &mut CompressStats| {
        let mut start = 0;
        while start < literals.len() {
            let chunk = (literals.len() - start).min(255);
            out.push(0x00);
            out.push(chunk as u8);
            out.extend_from_slice(&literals[start..start + chunk]);
            start += chunk;
        }
        stats.literals += literals.len();
        literals.clear();
    };

    while pos < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let mut candidate = head[h];
            let mut chain = 0;
            while candidate != usize::MAX && pos - candidate <= WINDOW && chain < 32 {
                stats.probes += 1;
                let mut len = 0;
                let max = (input.len() - pos).min(MAX_MATCH);
                while len < max && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = pos - candidate;
                }
                candidate = prev[candidate];
                chain += 1;
            }
            // Chain maintenance: current position becomes the new head.
            prev[pos] = head[h];
            head[h] = pos;
        }
        if best_len >= MIN_MATCH {
            flush_literals(&mut literals, &mut out, &mut stats);
            out.push(0x01);
            out.push((best_dist >> 8) as u8);
            out.push((best_dist & 0xff) as u8);
            out.push(best_len as u8);
            stats.matches += 1;
            // Insert hash entries for skipped positions to keep chains rich.
            for p in pos + 1..(pos + best_len).min(input.len().saturating_sub(MIN_MATCH)) {
                let h = hash4(&input[p..]);
                prev[p] = head[h];
                head[h] = p;
            }
            pos += best_len;
        } else {
            // Position was already inserted into the chain by the search.
            literals.push(input[pos]);
            pos += 1;
        }
    }
    flush_literals(&mut literals, &mut out, &mut stats);
    stats.bytes_out = out.len();
    (out, stats)
}

/// Decompression errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The token stream ended mid-token.
    Truncated,
    /// A back-reference `distance` reaches before the start of the `have`
    /// bytes of output.
    BadDistance { distance: usize, have: usize },
    /// Unknown token tag.
    BadTag(u8),
}

/// Decompresses a stream produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut pos = 0usize;
    while pos < input.len() {
        match input[pos] {
            0x00 => {
                let len = *input.get(pos + 1).ok_or(DecompressError::Truncated)? as usize;
                let start = pos + 2;
                let end = start + len;
                if end > input.len() {
                    return Err(DecompressError::Truncated);
                }
                out.extend_from_slice(&input[start..end]);
                pos = end;
            }
            0x01 => {
                if pos + 4 > input.len() {
                    return Err(DecompressError::Truncated);
                }
                let dist = ((input[pos + 1] as usize) << 8) | input[pos + 2] as usize;
                let len = input[pos + 3] as usize;
                if dist == 0 || dist > out.len() {
                    return Err(DecompressError::BadDistance {
                        distance: dist,
                        have: out.len(),
                    });
                }
                let start = out.len() - dist;
                // Overlapping copies are legal (RLE-style), byte by byte.
                for i in 0..len {
                    let byte = out[start + i];
                    out.push(byte);
                }
                pos += 4;
            }
            tag => return Err(DecompressError::BadTag(tag)),
        }
    }
    Ok(out)
}

fn round_trip(data: &[u8]) -> CompressStats {
    let (packed, stats) = compress(data);
    let unpacked = decompress(&packed).unwrap();
    assert_eq!(unpacked, data, "round trip mismatch");
    stats
}

#[test]
fn empty_and_tiny_inputs_round_trip() {
    round_trip(b"");
    round_trip(b"a");
    round_trip(b"abc");
}

#[test]
fn repetitive_input_compresses_well() {
    let data = b"serverless ".repeat(500);
    let stats = round_trip(&data);
    assert!(stats.matches > 0);
    assert!(
        stats.bytes_out < stats.bytes_in / 4,
        "ratio {} / {}",
        stats.bytes_out,
        stats.bytes_in
    );
}

#[test]
fn random_input_stays_lossless() {
    let mut rng = SmallRng::seed_from_u64(5);
    let data: Vec<u8> = (0..50_000).map(|_| rng.gen()).collect();
    let stats = round_trip(&data);
    // Incompressible data should not blow up unreasonably.
    assert!(stats.bytes_out < stats.bytes_in + stats.bytes_in / 64 + 64);
}

#[test]
fn overlapping_matches_round_trip() {
    // Classic RLE case: one literal then long self-referencing run.
    let data = vec![b'x'; 4_000];
    let stats = round_trip(&data);
    assert!(stats.matches > 0);
    assert!(stats.bytes_out < 200);
}

#[test]
fn mixed_content_round_trips() {
    let mut rng = SmallRng::seed_from_u64(6);
    let mut data = Vec::new();
    for _ in 0..50 {
        if rng.gen_bool(0.5) {
            data.extend_from_slice(b"checkpoint-orchestration-policy");
        } else {
            data.extend((0..rng.gen_range(1..100)).map(|_| rng.gen::<u8>()));
        }
    }
    round_trip(&data);
}

#[test]
fn decompress_rejects_corrupt_streams() {
    assert_eq!(decompress(&[0x00]), Err(DecompressError::Truncated));
    assert_eq!(
        decompress(&[0x00, 5, 1, 2]),
        Err(DecompressError::Truncated)
    );
    assert_eq!(decompress(&[0x01, 0, 1]), Err(DecompressError::Truncated));
    assert!(matches!(
        decompress(&[0x01, 0, 9, 3]),
        Err(DecompressError::BadDistance { .. })
    ));
    assert_eq!(decompress(&[0x7f]), Err(DecompressError::BadTag(0x7f)));
}

#[test]
fn probe_work_scales_with_input() {
    let small = b"abcd".repeat(100);
    let large = b"abcd".repeat(4_000);
    let (_, s) = compress(&small);
    let (_, l) = compress(&large);
    assert!(l.probes > s.probes);
}
