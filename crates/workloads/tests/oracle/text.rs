//! The reference prose generator and word counter.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The library's vocabulary, copied: the differential tests catch drift.
#[rustfmt::skip]
const VOCAB: &[&str] = &[
    "the", "of", "serverless", "function", "latency", "snapshot", "worker", "request", "jit",
    "compile", "cold", "warm", "start", "pool", "policy", "orchestrator", "checkpoint", "restore",
    "runtime", "profile", "tier", "optimization", "speculative", "deoptimize", "container",
    "eviction", "and", "a", "to", "in", "is", "with", "for", "over", "under", "between",
];

/// Generates `words` words of pseudo-prose with sentence punctuation.
pub fn generate_text<R: Rng + ?Sized>(rng: &mut R, words: usize) -> String {
    let mut out = String::with_capacity(words * 7);
    let mut sentence_len = 0usize;
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(VOCAB[rng.gen_range(0..VOCAB.len())]);
        sentence_len += 1;
        if sentence_len >= rng.gen_range(5..15) {
            out.push('.');
            sentence_len = 0;
        }
    }
    if !out.ends_with('.') {
        out.push('.');
    }
    out
}

/// Result of a word count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordCountResult {
    /// Tokens scanned (total words).
    pub tokens: usize,
    /// Distinct words.
    pub distinct: usize,
    /// Bytes of input processed.
    pub bytes: usize,
    /// The most frequent word and its count, if any.
    pub top: Option<(String, usize)>,
}

/// Counts words (alphanumeric runs, case-insensitive).
pub fn word_count(text: &str) -> WordCountResult {
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut tokens = 0usize;
    for token in text.split(|c: char| !c.is_alphanumeric()) {
        if token.is_empty() {
            continue;
        }
        tokens += 1;
        *counts.entry(token.to_lowercase()).or_insert(0) += 1;
    }
    let top = counts
        .iter()
        // `max_by` under a total (count, key) order: the winner is
        // independent of HashMap iteration order.
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(w, c)| (w.clone(), *c));
    WordCountResult {
        tokens,
        distinct: counts.len(),
        bytes: text.len(),
        top,
    }
}

#[test]
fn generated_text_has_requested_word_count() {
    let mut rng = SmallRng::seed_from_u64(1);
    let text = generate_text(&mut rng, 500);
    let wc = word_count(&text);
    assert_eq!(wc.tokens, 500);
    assert!(wc.distinct <= VOCAB.len());
    assert!(wc.bytes >= 500 * 2);
}

#[test]
fn empty_and_zero_word_inputs() {
    let wc = word_count("");
    assert_eq!(wc.tokens, 0);
    assert_eq!(wc.distinct, 0);
    assert_eq!(wc.top, None);
    let mut rng = SmallRng::seed_from_u64(2);
    assert_eq!(generate_text(&mut rng, 0), ".");
}

#[test]
fn counting_is_case_insensitive_and_punctuation_robust() {
    let wc = word_count("JIT jit, JIT! warm-warm.");
    assert_eq!(wc.tokens, 5);
    assert_eq!(wc.distinct, 2);
    assert_eq!(wc.top, Some(("jit".into(), 3)));
}

#[test]
fn top_word_tie_breaks_deterministically() {
    let a = word_count("alpha beta");
    let b = word_count("alpha beta");
    assert_eq!(a.top, b.top);
    // Lexicographically smaller word wins a tie.
    assert_eq!(a.top, Some(("alpha".into(), 1)));
}

#[test]
fn work_scales_with_length() {
    let mut rng = SmallRng::seed_from_u64(3);
    let small = word_count(&generate_text(&mut rng, 100));
    let large = word_count(&generate_text(&mut rng, 2_000));
    assert!(large.tokens > small.tokens);
    assert!(large.bytes > small.bytes);
}
