//! Concrete generators.

use crate::{RngCore, SeedableRng};

/// A small, fast, non-cryptographic generator: xoshiro256++, the same
/// algorithm `rand` 0.8's `SmallRng` uses on 64-bit targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SeedableRng for SmallRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, word) in s.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
            *word = u64::from_le_bytes(b);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0; 4] {
            s = [
                0x9e37_79b9_7f4a_7c15,
                0xbf58_476d_1ce4_e5b9,
                0x94d0_49bb_1331_11eb,
                0x2545_f491_4f6c_dd1d,
            ];
        }
        SmallRng { s }
    }
}

/// Below this many draws, [`RngCore::discard`] steps the state instead of
/// jumping. A jump costs a 256-step pass plus `popcount(n) - 1`
/// multiplications mod `p`: on an x86-64 VM a step takes ~0.7 ns, the
/// pass ~0.24 µs and a multiplication ~0.19 µs, so at a typical popcount
/// of 6 the two meet near 2,000 draws.
pub(crate) const JUMP_MIN_DRAWS: u64 = 2_048;

/// One step of xoshiro256's linear state update.
#[inline(always)]
fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

impl RngCore for SmallRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let s = &self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        step(&mut self.s);
        result
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let n = rest.len();
            rest.copy_from_slice(&self.next_u64().to_le_bytes()[..n]);
        }
    }

    /// Jumps: with `r(x) = x^n mod p(x)`, the state after `n` steps is
    /// `Σ r_i · T^i(s)` (see `jump.rs`), summed over one 256-step pass.
    fn discard(&mut self, n: u64) {
        if n < JUMP_MIN_DRAWS {
            for _ in 0..n {
                step(&mut self.s);
            }
            return;
        }
        let mut sum = [0u64; 4];
        for word in crate::jump::x_pow(n) {
            for bit in 0..64 {
                let mask = (word >> bit & 1).wrapping_neg();
                for (acc, s) in sum.iter_mut().zip(self.s) {
                    *acc ^= s & mask;
                }
                step(&mut self.s);
            }
        }
        self.s = sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The state `n` [`RngCore::next_u64`] calls leave.
    fn stepped(mut rng: SmallRng, n: u64) -> SmallRng {
        for _ in 0..n {
            rng.next_u64();
        }
        rng
    }

    fn discard_via<R: RngCore>(mut rng: R, n: u64) -> R {
        rng.discard(n);
        rng
    }

    #[test]
    fn discard_leaves_the_state_of_n_draws() {
        let ns = [
            0,
            1,
            JUMP_MIN_DRAWS - 1,
            JUMP_MIN_DRAWS,
            JUMP_MIN_DRAWS + 1,
            3 * 96 * 72,
            3 * 288 * 288,
            (1 << 20) + 7,
        ];
        for seed in [0, 1, 0x5a17_c0de, u64::MAX] {
            let start = SmallRng::seed_from_u64(seed);
            for n in ns {
                let want = stepped(start.clone(), n);
                let mut direct = start.clone();
                direct.discard(n);
                assert_eq!(direct, want, "seed {seed}, n {n}");
                let mut through_dyn = start.clone();
                (&mut through_dyn as &mut dyn RngCore).discard(n);
                assert_eq!(through_dyn, want, "dyn: seed {seed}, n {n}");
                let mut through_ref = start.clone();
                discard_via(&mut through_ref, n);
                assert_eq!(through_ref, want, "&mut: seed {seed}, n {n}");
                let boxed = discard_via(Box::new(start.clone()), n);
                assert_eq!(*boxed, want, "Box: seed {seed}, n {n}");
            }
        }
    }
}
