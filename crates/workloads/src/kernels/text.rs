//! Text kernels: the work-unit form of word counting over random prose.
//!
//! The WordCount benchmark (Table 3: "word count for random-length
//! excerpts") tallies generated text; its tokens and bytes are the work
//! units. The reference generator (`tests/oracle/text.rs`) draws each
//! word from `VOCAB`, then a sentence length in `5..15`, and ends the
//! sentence with a dot once it has that many words.

use rand::Rng;

/// A small vocabulary mixing short and long words, so tokenization work
/// varies realistically with text length.
const VOCAB: &[&str] = &[
    "the",
    "of",
    "serverless",
    "function",
    "latency",
    "snapshot",
    "worker",
    "request",
    "jit",
    "compile",
    "cold",
    "warm",
    "start",
    "pool",
    "policy",
    "orchestrator",
    "checkpoint",
    "restore",
    "runtime",
    "profile",
    "tier",
    "optimization",
    "speculative",
    "deoptimize",
    "container",
    "eviction",
    "and",
    "a",
    "to",
    "in",
    "is",
    "with",
    "for",
    "over",
    "under",
    "between",
];

/// The byte length of the text the reference generator would produce,
/// making the same draws: the words, a space between each two, a dot after each
/// sentence and a closing dot unless the last word ended one.
pub fn generated_text_len<R: Rng + ?Sized>(rng: &mut R, words: usize) -> usize {
    let mut len = words.saturating_sub(1);
    let mut sentence_len = 0usize;
    let mut ends_with_dot = false;
    for _ in 0..words {
        len += VOCAB[rng.gen_range(0..VOCAB.len())].len();
        sentence_len += 1;
        ends_with_dot = sentence_len >= rng.gen_range(5..15);
        if ends_with_dot {
            len += 1;
            sentence_len = 0;
        }
    }
    len + usize::from(!ends_with_dot)
}

#[cfg(test)]
#[path = "../../tests/oracle/text.rs"]
mod tests;
