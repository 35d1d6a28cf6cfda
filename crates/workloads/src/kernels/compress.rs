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
/// Bits of the hash [`Window`] counts positions by: the same product's
/// top bits, so the `2^(COUNT_BITS - HASH_BITS)` counts under a chain
/// hash sum to its chain's length.
const COUNT_BITS: usize = 15;

/// The multiplicative hash of the 4 bytes at the start of `bytes`; the
/// reference's chain hash is its top `HASH_BITS` bits.
fn key4(bytes: &[u8]) -> u32 {
    let v = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    v.wrapping_mul(2_654_435_761)
}

/// The counters the reference compressor returns for `input`, without
/// building the token stream.
///
/// The reference inserts every position below `len − 3` into its hash
/// chains, in order, before any later search; a chain therefore holds
/// every earlier position with its hash, newest first, and a search's
/// probe count is `min(32, positions with that hash in the window)`,
/// which `Window` counts without walking the chain.
///
/// Only a walk that can find a match of `MIN_MATCH` bytes needs to run:
/// a shorter best length emits a literal whatever it is. A walk is
/// skipped when no position in the window has the current 4 bytes'
/// wider hash, so none can start with them. A walk that runs
/// is the reference's over the same candidates: a candidate is compared
/// only if it matches at the best length so far (zlib's pre-check:
/// otherwise it cannot beat the best match), the match extension
/// compares 8 bytes at a time, and the walk stops once a match reaches
/// the longest possible length. `bytes_out` is counted: each flushed
/// literal run of `L` bytes costs `L` plus a 2-byte header per started
/// 255-byte chunk, each match 4 bytes.
///
/// # Panics
///
/// If `input` is 4 GiB or longer: positions are kept as `u32`.
pub fn compress_stats(input: &[u8]) -> CompressStats {
    assert!(input.len() < NONE as usize, "input of 4 GiB or more");
    let mut stats = CompressStats {
        bytes_in: input.len(),
        ..CompressStats::default()
    };
    let mut window = Window::new();
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
            window.slide_to(input, pos);
            let key = key4(&input[pos..]);
            stats.probes += window.probes(key);
            if window.may_match(key) {
                best_len = window.longest_match(input, pos, key);
            }
            window.insert(pos, key);
        }
        if best_len >= MIN_MATCH {
            flush(&mut run, &mut stats);
            stats.bytes_out += 4;
            stats.matches += 1;
            for p in pos + 1..(pos + best_len).min(input.len().saturating_sub(MIN_MATCH)) {
                window.insert(p, key4(&input[p..]));
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

/// The reference's hash chains, with counts of the positions in the
/// search window per [`COUNT_BITS`]-bit hash.
///
/// The chain links live in a ring of `WINDOW` positions, not one per
/// input byte: a chain is only followed to positions within `WINDOW` of
/// the current one, and in a longer input a position's slot is next
/// written by the position `WINDOW` after it, once that one's search is
/// done. A slot is read only after its position wrote it, so the ring
/// starts zeroed. Positions are `u32`, and every table has a fixed size
/// that its masked index cannot leave: the scratch memory (112 KiB) is
/// bounded whatever the input's length, and indexing it needs no bounds
/// checks.
struct Window {
    /// Each chain's newest position, or [`NONE`].
    head: Box<[u32; 1 << HASH_BITS]>,
    /// Each position's next older position in its chain, or [`NONE`].
    prev: Box<[u32; WINDOW]>,
    /// Positions in the window per [`COUNT_BITS`]-bit hash.
    in_window: Box<[u16; 1 << COUNT_BITS]>,
    /// The oldest position still counted.
    oldest: usize,
}

/// The end of a chain.
const NONE: u32 = u32::MAX;

impl Window {
    fn new() -> Window {
        Window {
            head: table(NONE),
            prev: table(0),
            in_window: table(0),
            oldest: 0,
        }
    }

    /// Makes position `p`, with hash key `key`, its chain's head.
    fn insert(&mut self, p: usize, key: u32) {
        let h = chain_hash(key);
        self.prev[p % WINDOW] = self.head[h];
        self.head[h] = p as u32;
        self.in_window[count_hash(key)] += 1;
    }

    /// Stops counting the positions more than `WINDOW` before `pos`.
    fn slide_to(&mut self, input: &[u8], pos: usize) {
        while self.oldest + WINDOW < pos {
            let key = key4(&input[self.oldest..]);
            self.in_window[count_hash(key)] -= 1;
            self.oldest += 1;
        }
    }

    /// The reference's probe count for a search with hash key `key`.
    fn probes(&self, key: u32) -> usize {
        let first = chain_hash(key) << (COUNT_BITS - HASH_BITS);
        let block = &self.in_window[first..first + (1 << (COUNT_BITS - HASH_BITS))];
        block.iter().map(|&c| usize::from(c)).sum::<usize>().min(32)
    }

    /// Whether a position in the window may start with the 4 bytes of
    /// hash key `key`.
    fn may_match(&self, key: u32) -> bool {
        self.in_window[count_hash(key)] > 0
    }

    /// The reference's best match length at `pos`, whose hash key is
    /// `key`.
    fn longest_match(&self, input: &[u8], pos: usize, key: u32) -> usize {
        let max = (input.len() - pos).min(MAX_MATCH);
        let mut best_len = 0;
        let mut candidate = self.head[chain_hash(key)];
        let mut chain = 0;
        while candidate != NONE && pos - candidate as usize <= WINDOW && chain < 32 {
            let c = candidate as usize;
            if input[c + best_len] == input[pos + best_len] {
                best_len = best_len.max(common_prefix(&input[c..], &input[pos..], max));
                if best_len == max {
                    break;
                }
            }
            candidate = self.prev[c % WINDOW];
            chain += 1;
        }
        best_len
    }
}

/// A table of `N` copies of `fill`, on the heap.
fn table<T: Copy + std::fmt::Debug, const N: usize>(fill: T) -> Box<[T; N]> {
    vec![fill; N]
        .into_boxed_slice()
        .try_into()
        .expect("N entries")
}

fn chain_hash(key: u32) -> usize {
    (key >> (32 - HASH_BITS)) as usize
}

fn count_hash(key: u32) -> usize {
    (key >> (32 - COUNT_BITS)) as usize
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
