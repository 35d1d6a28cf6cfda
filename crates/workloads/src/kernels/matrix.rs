//! The work-unit form of a dense matrix product.
//!
//! Backs the `MatrixMult` benchmark (Table 3: "square matrices
//! multiplication with random sizes"). Two random `n × n` operands cost
//! `n³` multiply-adds: the strongest input-size → latency coupling among
//! the benchmarks. The reference matrix, whose entries are uniform draws
//! in `[-1, 1)`, is the test oracle in `tests/oracle/matrix.rs`.

use rand::Rng;

/// Leaves `rng` where drawing a random `rows × cols` matrix leaves it:
/// past `rows·cols` draws of one generator step each, jumped over.
pub fn skip_random<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) {
    rng.discard((rows * cols) as u64);
}

#[cfg(test)]
#[path = "../../tests/oracle/matrix.rs"]
mod tests;
