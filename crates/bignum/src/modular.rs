//! Modular arithmetic: Montgomery exponentiation and modular inverses.
//!
//! RSA/DSA signing is dominated by `modpow` with 1024-bit odd moduli; the
//! [`Montgomery`] context implements CIOS (coarsely integrated operand
//! scanning) multiplication with a 4-bit fixed window, which keeps the
//! from-scratch implementation within a small constant factor of
//! production libraries — close enough that the paper's hash-vs-public-key
//! cost ratios survive. Even moduli fall back to division-based square and
//! multiply (they only occur in tests).

use crate::BigUint;
use std::cmp::Ordering;

/// Reusable Montgomery context for a fixed odd modulus.
pub struct Montgomery {
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64·len)`, for converting into the domain.
    r2: Vec<u64>,
}

impl Montgomery {
    /// Build a context; panics if `modulus` is even or < 3.
    #[must_use]
    pub fn new(modulus: &BigUint) -> Montgomery {
        assert!(
            !modulus.is_even() && modulus.bits() >= 2,
            "Montgomery needs odd modulus >= 3"
        );
        let n = modulus.limbs.clone();
        let n0inv = inv64(n[0]).wrapping_neg();
        // R^2 mod n via repeated doubling: start from R mod n.
        let k = n.len();
        let r = BigUint::one().shl(64 * k).rem(modulus);
        let mut r2 = r.clone();
        for _ in 0..64 * k {
            r2 = r2.add(&r2);
            if r2.cmp(modulus) != Ordering::Less {
                r2 = r2.sub(modulus);
            }
        }
        let mut r2l = r2.limbs;
        r2l.resize(k, 0);
        Montgomery { n, n0inv, r2: r2l }
    }

    fn k(&self) -> usize {
        self.n.len()
    }

    /// CIOS Montgomery multiplication: returns `a·b·R^{-1} mod n`.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let k = self.k();
        let mut t = vec![0u64; k + 2];
        for &ai in a.iter().take(k) {
            // t += ai * b
            let mut carry = 0u128;
            for j in 0..k {
                let s = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + carry;
                t[j] = s as u64;
                carry = s >> 64;
            }
            let s = u128::from(t[k]) + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0inv);
            let s = u128::from(t[0]) + u128::from(m) * u128::from(self.n[0]);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = u128::from(t[j]) + u128::from(m) * u128::from(self.n[j]) + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = u128::from(t[k]) + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + ((s >> 64) as u64);
            t[k + 1] = 0;
        }
        t.truncate(k + 1);
        // Conditional final subtraction.
        let mut out = BigUint { limbs: t };
        out.normalize();
        let nbig = BigUint {
            limbs: self.n.clone(),
        };
        if out.cmp(&nbig) != Ordering::Less {
            out = out.sub(&nbig);
        }
        let mut limbs = out.limbs;
        limbs.resize(k, 0);
        limbs
    }

    fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let mut al = a.limbs.clone();
        al.resize(self.k(), 0);
        self.mont_mul(&al, &self.r2)
    }

    fn out_of_mont(&self, a: &[u64]) -> BigUint {
        let one = {
            let mut v = vec![0u64; self.k()];
            v[0] = 1;
            v
        };
        let mut out = BigUint {
            limbs: self.mont_mul(a, &one),
        };
        out.normalize();
        out
    }

    /// `base^exp mod n` with a 4-bit fixed window.
    #[must_use]
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let nbig = BigUint {
            limbs: self.n.clone(),
        };
        let base = base.rem(&nbig);
        if exp.is_zero() {
            return BigUint::one().rem(&nbig);
        }
        let bm = self.to_mont(&base);
        // Precompute base^0..base^15 in the domain.
        let one_m = self.to_mont(&BigUint::one());
        let mut table = Vec::with_capacity(16);
        table.push(one_m.clone());
        table.push(bm.clone());
        for i in 2..16 {
            table.push(self.mont_mul(&table[i - 1], &bm));
        }
        let nbits = exp.bits();
        let nwindows = nbits.div_ceil(4);
        let mut acc = one_m;
        let mut started = false;
        for w in (0..nwindows).rev() {
            if started {
                for _ in 0..4 {
                    acc = self.mont_mul(&acc, &acc);
                }
            }
            let mut digit = 0usize;
            for b in 0..4 {
                let bit = w * 4 + (3 - b);
                digit <<= 1;
                if bit < nbits && exp.bit(bit) {
                    digit |= 1;
                }
            }
            if digit != 0 {
                acc = self.mont_mul(&acc, &table[digit]);
                started = true;
            } else if started {
                // square-only window: nothing to multiply
            } else {
                // leading zero windows: skip
            }
        }
        if !started {
            // exp was nonzero, so this cannot happen; keep the invariant clear.
            return BigUint::one().rem(&nbig);
        }
        self.out_of_mont(&acc)
    }
}

/// Inverse of an odd `x` modulo 2^64 (Newton iteration).
fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

impl BigUint {
    /// `self^exp mod modulus`. Montgomery-accelerated for odd moduli.
    #[must_use]
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if modulus.is_even() {
            return self.modpow_plain(exp, modulus);
        }
        Montgomery::new(modulus).pow(self, exp)
    }

    /// Division-based square-and-multiply (any modulus; slow path).
    pub(crate) fn modpow_plain(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        let mut result = BigUint::one().rem(modulus);
        let mut base = self.rem(modulus);
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
            if i + 1 < exp.bits() {
                base = base.mul_mod(&base, modulus);
            }
        }
        result
    }

    /// `self^{-1} mod modulus` via extended Euclid, or `None` if the
    /// inverse does not exist (gcd ≠ 1).
    #[must_use]
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        let a = self.rem(modulus);
        if a.is_zero() {
            return None;
        }
        // Iterative extended Euclid with sign tracking for the Bezout
        // coefficient of `a`.
        let (mut old_r, mut r) = (a, modulus.clone());
        let (mut old_s, mut s) = (BigUint::one(), BigUint::zero());
        let (mut old_s_neg, mut s_neg) = (false, false);
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q*s  (signed)
            let qs = q.mul(&s);
            let (new_s, new_neg) = signed_sub((&old_s, old_s_neg), (&qs, s_neg));
            old_s = std::mem::replace(&mut s, new_s);
            old_s_neg = std::mem::replace(&mut s_neg, new_neg);
        }
        if !old_r.is_one() {
            return None;
        }
        let inv = if old_s_neg {
            modulus.sub(&old_s.rem(modulus))
        } else {
            old_s.rem(modulus)
        };
        let inv = if inv.cmp(modulus) == Ordering::Less {
            inv
        } else {
            inv.sub(modulus)
        };
        Some(inv)
    }
}

/// `(a, a_neg) - (b, b_neg)` over sign-magnitude big integers.
fn signed_sub(a: (&BigUint, bool), b: (&BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        (false, true) => (a.0.add(b.0), false), // a - (-b) = a + b
        (true, false) => (a.0.add(b.0), true),  // -a - b = -(a+b)
        (false, false) => {
            if a.0.cmp(b.0) == Ordering::Less {
                (b.0.sub(a.0), true)
            } else {
                (a.0.sub(b.0), false)
            }
        }
        (true, true) => {
            // -a - (-b) = b - a
            if b.0.cmp(a.0) == Ordering::Less {
                (a.0.sub(b.0), true)
            } else {
                (b.0.sub(a.0), false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_modpow() {
        assert_eq!(n(4).modpow(&n(13), &n(497)), n(445)); // classic RSA toy
        assert_eq!(n(2).modpow(&n(10), &n(1025)), n(1024));
        assert_eq!(n(7).modpow(&n(0), &n(13)), n(1));
        assert_eq!(n(0).modpow(&n(5), &n(13)), n(0));
    }

    #[test]
    fn modpow_even_modulus() {
        assert_eq!(n(3).modpow(&n(4), &n(100)), n(81));
        assert_eq!(n(7).modpow(&n(3), &n(64)), n(343 % 64));
    }

    #[test]
    fn fermat_little_theorem() {
        // p prime, a^(p-1) = 1 mod p for large odd p.
        let p = BigUint::from_hex("ffffffffffffffffffffffffffffff61"); // 2^128-159, prime
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let a = BigUint::random_below(&p, &mut rng);
            if a.is_zero() {
                continue;
            }
            assert!(a.modpow(&p.sub(&BigUint::one()), &p).is_one());
        }
    }

    #[test]
    fn montgomery_matches_plain() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..25 {
            let mut m = BigUint::random_bits(192, &mut rng);
            if m.is_even() {
                m = m.add(&BigUint::one());
            }
            let b = BigUint::random_bits(190, &mut rng);
            let e = BigUint::random_bits(64, &mut rng);
            assert_eq!(b.modpow(&e, &m), b.modpow_plain(&e, &m), "m={m}");
        }
    }

    #[test]
    fn mod_inverse_basics() {
        assert_eq!(n(3).mod_inverse(&n(11)), Some(n(4)));
        assert_eq!(n(10).mod_inverse(&n(17)), Some(n(12)));
        assert_eq!(n(6).mod_inverse(&n(9)), None); // gcd 3
        assert_eq!(n(0).mod_inverse(&n(7)), None);
    }

    #[test]
    fn mod_inverse_randomized() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let p = BigUint::from_hex("ffffffffffffffffffffffffffffff61");
        for _ in 0..30 {
            let a = BigUint::random_below(&p, &mut rng);
            if a.is_zero() {
                continue;
            }
            let inv = a.mod_inverse(&p).expect("prime modulus");
            assert!(a.mul_mod(&inv, &p).is_one());
        }
    }

    #[test]
    fn inv64_odd_values() {
        for x in [1u64, 3, 0xdead_beef_dead_beef_u64 | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(super::inv64(x)), 1);
        }
    }

    #[test]
    fn pow_one_and_self() {
        let m = BigUint::from_hex("10000000000000000000000000000061");
        let b = BigUint::from_hex("123456789abcdef");
        assert_eq!(b.modpow(&BigUint::one(), &m), b.rem(&m));
    }

    #[test]
    fn modulus_one_gives_zero() {
        assert_eq!(n(5).modpow(&n(3), &BigUint::one()), BigUint::zero());
    }
}
