//! Jump-ahead arithmetic for xoshiro256: `x^n mod p(x)` over GF(2).
//!
//! xoshiro256's state update `T` is linear over GF(2), and `p` is its
//! characteristic polynomial, so `T^n = r(T)` for `r(x) = x^n mod p(x)`
//! (Cayley–Hamilton). Stepping the state `n` times therefore equals
//! `Σ r_i · T^i(s)`: one 256-step pass, whatever `n` is (Haramoto et al.,
//! "Efficient jump ahead for F2-linear random number generators", 2008).
//! Vigna's published `jump()` and `long_jump()` are this pass with
//! `r = x^(2^128) mod p` and `x^(2^192) mod p`, which the tests reproduce.

/// A polynomial over GF(2) of degree below 256: bit `i % 64` of word
/// `i / 64` is the coefficient of `x^i`.
pub(crate) type Poly = [u64; 4];

/// `p(x) - x^256`, the low coefficients of xoshiro256's characteristic
/// polynomial (found by Berlekamp–Massey on the generator's output bits).
/// Its degree is 241, which [`CARRY`] relies on.
const P_LOW: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// The constant polynomial 1.
const ONE: Poly = [1, 0, 0, 0];

const fn xor(a: Poly, b: Poly) -> Poly {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

/// `a · x mod p`.
const fn mul_x(a: Poly) -> Poly {
    let carry = (a[3] >> 63).wrapping_neg();
    [
        (a[0] << 1) ^ (P_LOW[0] & carry),
        (a[1] << 1 | a[0] >> 63) ^ (P_LOW[1] & carry),
        (a[2] << 1 | a[1] >> 63) ^ (P_LOW[2] & carry),
        (a[3] << 1 | a[2] >> 63) ^ (P_LOW[3] & carry),
    ]
}

/// `k(x) · a mod p` for every `k` of degree below 4, indexed by `k`'s bits.
const fn nibble_multiples(a: Poly) -> [Poly; 16] {
    let mut t = [[0; 4]; 16];
    t[1] = a;
    t[2] = mul_x(a);
    t[4] = mul_x(t[2]);
    t[8] = mul_x(t[4]);
    let mut k: usize = 3;
    while k < 16 {
        if k & (k - 1) != 0 {
            t[k] = xor(t[k & (k - 1)], t[k & k.wrapping_neg()]);
        }
        k += 1;
    }
    t
}

/// `h(x) · x^256 mod p = h(x) · P_LOW(x)` for every `h` of degree below 4:
/// the reduction of the four bits a shift by `x^4` carries out. `P_LOW`
/// has degree 241, so these products stay below degree 256.
const CARRY: [Poly; 16] = nibble_multiples(P_LOW);

/// `a · b mod p`, by Horner's rule over `b` four bits at a time.
const fn mul_mod(a: Poly, b: Poly) -> Poly {
    let multiples = nibble_multiples(a);
    let mut acc = [0u64; 4];
    let mut i = 64;
    while i > 0 {
        i -= 1;
        let top = (acc[3] >> 60) as usize;
        acc = [
            acc[0] << 4,
            acc[1] << 4 | acc[0] >> 60,
            acc[2] << 4 | acc[1] >> 60,
            acc[3] << 4 | acc[2] >> 60,
        ];
        let nibble = (b[i / 16] >> (4 * (i % 16)) & 0xf) as usize;
        acc = xor(xor(acc, CARRY[top]), multiples[nibble]);
    }
    acc
}

/// `POW2[j] = x^(2^j) mod p`.
const POW2: [Poly; 64] = {
    let mut t = [[0; 4]; 64];
    t[0] = [2, 0, 0, 0];
    let mut j = 1;
    while j < 64 {
        t[j] = mul_mod(t[j - 1], t[j - 1]);
        j += 1;
    }
    t
};

/// `x^n mod p`: one multiplication per set bit of `n` after the lowest.
pub(crate) fn x_pow(n: u64) -> Poly {
    if n == 0 {
        return ONE;
    }
    let mut r = POW2[n.trailing_zeros() as usize];
    let mut rest = n & (n - 1);
    while rest != 0 {
        r = mul_mod(r, POW2[rest.trailing_zeros() as usize]);
        rest &= rest - 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x^(2^k) mod p` by `k` squarings of `x`.
    fn x_pow_pow2(k: u32) -> Poly {
        (0..k).fold([2, 0, 0, 0], |r, _| mul_mod(r, r))
    }

    #[test]
    fn p_reproduces_the_published_jump_constants() {
        // xoshiro256++'s `jump()` (2^128 steps) and `long_jump()` (2^192).
        const JUMP: Poly = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        const LONG_JUMP: Poly = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];
        assert_eq!(x_pow_pow2(128), JUMP);
        assert_eq!(x_pow_pow2(192), LONG_JUMP);
        // The generator has full period 2^256 - 1, so `p` is primitive.
        assert_eq!(x_pow_pow2(256), [2, 0, 0, 0]);
    }

    #[test]
    fn powers_add_exponents() {
        for (a, b) in [
            (0, 5),
            (1, 1),
            (3, 250),
            (255, 1),
            (1_000, 20_736),
            (u64::MAX >> 1, 1),
        ] {
            assert_eq!(mul_mod(x_pow(a), x_pow(b)), x_pow(a + b), "{a} + {b}");
        }
        for j in 0..64 {
            assert_eq!(x_pow(1 << j), x_pow_pow2(j));
        }
        // Below degree 256, `x^n` needs no reduction.
        assert_eq!(x_pow(200), [0, 0, 0, 1 << 8]);
        assert_eq!(x_pow(256), P_LOW);
    }
}
