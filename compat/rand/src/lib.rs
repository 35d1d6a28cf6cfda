//! Workspace-local, offline subset of the `rand` 0.8 API.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the exact surface it uses: [`RngCore`], [`Rng`],
//! [`SeedableRng`], [`rngs::SmallRng`] (xoshiro256++, the same generator
//! real `rand` 0.8 uses for `SmallRng` on 64-bit targets),
//! [`distributions::Standard`], and [`seq::SliceRandom`]. Everything is
//! deterministic and dependency-free; nothing here is cryptographic.
//!
//! One extension goes beyond the rand 0.8 API: [`RngCore::discard`],
//! which advances a generator past `n` draws nobody reads. `SmallRng`
//! jumps there in O(log n) with xoshiro256's characteristic polynomial,
//! so the stream stays exactly the one `n` draws would leave.

#![forbid(unsafe_code)]

pub mod distributions;
mod jump;
pub mod rngs;
pub mod seq;

pub use distributions::DistIter;

/// The core of a random number generator: a source of random bits.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Advances the generator past `n` [`next_u64`](RngCore::next_u64)
    /// draws without returning them, like C++'s `engine.discard(n)`.
    /// [`rngs::SmallRng`] jumps in O(log n); the default makes the draws.
    fn discard(&mut self, n: u64) {
        for _ in 0..n {
            self.next_u64();
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn discard(&mut self, n: u64) {
        (**self).discard(n)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn discard(&mut self, n: u64) {
        (**self).discard(n)
    }
}

/// A generator that can be reproducibly seeded.
pub trait SeedableRng: Sized {
    /// Raw seed material.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds a generator from raw seed material.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Derives full seed material from a single `u64` with a PCG32
    /// stream, matching the scheme `rand_core` 0.6 uses.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot);
            let n = chunk.len();
            chunk.copy_from_slice(&word.to_le_bytes()[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Draws a `f64` uniformly from `[0, 1)` using the top 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Convenience methods layered over [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of type `T` from the [`distributions::Standard`]
    /// distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        S: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p must be in [0, 1]");
        if p >= 1.0 {
            return true;
        }
        unit_f64(self) < p
    }

    /// Samples a value from `distr`.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }

    /// Turns this generator into an iterator of samples from `distr`.
    fn sample_iter<T, D>(self, distr: D) -> DistIter<D, Self, T>
    where
        D: distributions::Distribution<T>,
        Self: Sized,
    {
        DistIter::new(distr, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::SmallRng;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: u64 = rng.gen_range(3..10);
            assert!((3..10).contains(&v));
            let w: i32 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
        let lo: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        assert!(lo > 0.0);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits = {hits}");
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }

    #[test]
    fn works_through_dyn_rng_core() {
        let mut rng = SmallRng::seed_from_u64(3);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let v: u64 = dyn_rng.gen_range(0..5u64);
        assert!(v < 5);
        let _: u64 = dyn_rng.gen();
    }

    /// Counts the calls that reach it.
    #[derive(Default)]
    struct Counting {
        draws: u64,
        discards: u64,
    }

    impl RngCore for Counting {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            0
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {}
        fn discard(&mut self, _: u64) {
            self.discards += 1;
        }
    }

    #[test]
    fn wrappers_forward_discard() {
        fn discard_via<R: RngCore>(mut rng: R) -> R {
            rng.discard(1_000);
            rng
        }
        let mut inner = Counting::default();
        discard_via(&mut inner);
        discard_via(&mut &mut inner);
        discard_via(&mut inner as &mut dyn RngCore);
        discard_via(Box::new(&mut inner as &mut dyn RngCore));
        let inner = *discard_via(Box::new(inner));
        assert_eq!((inner.draws, inner.discards), (0, 5));
    }

    #[test]
    fn default_discard_makes_the_draws() {
        struct Stepping(u64);
        impl RngCore for Stepping {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0 += 1;
                self.0
            }
            fn fill_bytes(&mut self, _: &mut [u8]) {}
        }
        let mut rng = Stepping(0);
        rng.discard(37);
        assert_eq!(rng.0, 37);
    }

    #[test]
    fn fill_bytes_covers_partial_words() {
        for len in [0, 7, 8, 13, 4096] {
            let mut rng = SmallRng::seed_from_u64(len as u64);
            let mut reference = rng.clone();
            let mut got = vec![0u8; len];
            rng.fill_bytes(&mut got);
            let want: Vec<u8> = (0..len.div_ceil(8))
                .flat_map(|_| reference.next_u64().to_le_bytes())
                .take(len)
                .collect();
            assert_eq!(got, want, "len {len}");
            assert_eq!(rng, reference, "len {len}: one step per started word");
        }
    }
}
