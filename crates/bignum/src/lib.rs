#![warn(missing_docs)]

//! Arbitrary-precision unsigned integer arithmetic.
//!
//! Substrate for [`alpha-pk`](../alpha_pk/index.html): the ALPHA paper's
//! Table 4 compares the protocol against RSA-1024 and DSA-1024 signatures,
//! §4.1.3 against 160-bit ECC, and §3.4's *protected bootstrapping* signs
//! hash-chain anchors with exactly those schemes. None of the allowed
//! offline crates provide big integers, so this crate implements the needed
//! arithmetic from scratch:
//!
//! - [`BigUint`]: little-endian `u64`-limb integers with the usual
//!   add / sub / mul / div-rem (Knuth algorithm D) and shifts.
//! - Modular arithmetic: [`BigUint::modpow`] via Montgomery multiplication
//!   (CIOS) with a 4-bit window for odd moduli, [`BigUint::mod_inverse`]
//!   via extended Euclid.
//! - Primality: Miller-Rabin with random bases over a small-prime sieve
//!   ([`prime`]).
//!
//! The implementation favours clarity and testability over raw speed; it is
//! still fast enough that an RSA-1024 signature costs milliseconds in
//! release builds, preserving the paper's headline ratio (public-key ops
//! are 3–5 orders of magnitude more expensive than a hash).

mod div;
mod modular;
pub mod prime;
#[cfg(test)]
mod props;

use rand::RngCore;
use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
///
/// Limbs are `u64`, least significant first, with no trailing zero limbs
/// (zero is the empty limb vector).
///
/// ```
/// use alpha_bignum::BigUint;
///
/// let p = BigUint::from_hex("ffffffffffffffffffffffffffffff61"); // prime
/// let a = BigUint::from_u64(123456789);
/// // Fermat: a^(p-1) ≡ 1 (mod p).
/// let one = a.modpow(&p.sub(&BigUint::one()), &p);
/// assert!(one.is_one());
/// // Modular inverse.
/// let inv = a.mod_inverse(&p).unwrap();
/// assert!(a.mul_mod(&inv, &p).is_one());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    #[must_use]
    pub fn zero() -> BigUint {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    #[must_use]
    pub fn one() -> BigUint {
        BigUint { limbs: vec![1] }
    }

    /// From a primitive.
    #[must_use]
    pub fn from_u64(v: u64) -> BigUint {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Parse big-endian bytes (as found in keys and signatures).
    #[must_use]
    pub fn from_bytes_be(bytes: &[u8]) -> BigUint {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes with no leading zeros (empty for 0).
    #[must_use]
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.split_off(skip)
    }

    /// Serialize to exactly `len` big-endian bytes, left-padded with zeros.
    /// Panics if the value does not fit.
    #[must_use]
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parse a hexadecimal string (no prefix, case-insensitive).
    #[must_use]
    pub fn from_hex(s: &str) -> BigUint {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()), "invalid hex");
        let padded = if s.len() % 2 == 1 { format!("0{s}") } else { s };
        let bytes: Vec<u8> = (0..padded.len() / 2)
            .map(|i| u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).expect("checked hex"))
            .collect();
        BigUint::from_bytes_be(&bytes)
    }

    /// Lower-case hex rendering ("0" for zero).
    #[must_use]
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let bytes = self.to_bytes_be();
        let mut s: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        while s.len() > 1 && s.starts_with('0') {
            s.remove(0);
        }
        s
    }

    /// Uniform random integer with exactly `bits` bits (top bit set).
    #[must_use]
    pub fn random_bits(bits: usize, rng: &mut dyn RngCore) -> BigUint {
        assert!(bits > 0);
        let limbs = bits.div_ceil(64);
        let mut v = vec![0u64; limbs];
        for limb in &mut v {
            *limb = rng.next_u64();
        }
        let top = (bits - 1) % 64;
        let last = limbs - 1;
        v[last] &= (!0u64) >> (63 - top);
        v[last] |= 1u64 << top;
        let mut n = BigUint { limbs: v };
        n.normalize();
        n
    }

    /// Uniform random integer in `[0, bound)`.
    #[must_use]
    pub fn random_below(bound: &BigUint, rng: &mut dyn RngCore) -> BigUint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bits();
        loop {
            let limbs = bits.div_ceil(64);
            let mut v = vec![0u64; limbs];
            for limb in &mut v {
                *limb = rng.next_u64();
            }
            let excess = limbs * 64 - bits;
            if excess > 0 {
                v[limbs - 1] &= (!0u64) >> excess;
            }
            let mut n = BigUint { limbs: v };
            n.normalize();
            if n.cmp(bound) == Ordering::Less {
                return n;
            }
        }
    }

    /// True if the value is 0.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is 1.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True if the low bit is clear.
    #[must_use]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Bit `i` (0 = least significant).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        self.limbs
            .get(limb)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        #[allow(clippy::needless_range_loop)] // parallel walk over two slices
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`. Panics on underflow (callers compare first).
    #[must_use]
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp(other) != Ordering::Less,
            "BigUint subtraction underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook).
    #[must_use]
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = u128::from(out[k]) + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self << bits`.
    #[must_use]
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            let mut c = self.clone();
            c.normalize();
            return c;
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self >> bits`.
    #[must_use]
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            for i in 0..out.len() {
                out[i] >>= bit_shift;
                if i + 1 < out.len() {
                    out[i] |= out[i + 1] << (64 - bit_shift);
                }
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self mod m`.
    #[must_use]
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `(self * other) mod m`.
    #[must_use]
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// `(self + other) mod m` for operands already `< m`.
    #[must_use]
    pub fn add_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let s = self.add(other);
        if s.cmp(m) == Ordering::Less {
            s
        } else {
            s.sub(m)
        }
    }

    /// `(self - other) mod m` for operands already `< m`.
    #[must_use]
    pub fn sub_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        if self.cmp(other) == Ordering::Less {
            self.add(m).sub(other)
        } else {
            self.sub(other)
        }
    }

    /// Greatest common divisor (Euclid).
    #[must_use]
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    /// Total comparison (most significant limbs first).
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
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
    fn roundtrip_bytes() {
        let v = BigUint::from_hex("0123456789abcdef00112233445566778899aabbccddeeff");
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        assert_eq!(
            v.to_hex(),
            "123456789abcdef00112233445566778899aabbccddeeff"
        );
    }

    #[test]
    fn zero_properties() {
        let z = BigUint::zero();
        assert!(z.is_zero());
        assert!(z.is_even());
        assert_eq!(z.bits(), 0);
        assert_eq!(z.to_bytes_be(), Vec::<u8>::new());
        assert_eq!(z.to_hex(), "0");
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff");
        let b = BigUint::from_hex("1");
        let sum = a.add(&b);
        assert_eq!(sum.to_hex(), "100000000000000000000000000000000");
        assert_eq!(sum.sub(&b), a);
        assert_eq!(sum.sub(&a), b);
    }

    #[test]
    fn mul_spans_limbs() {
        let a = BigUint::from_hex("ffffffffffffffff"); // 2^64-1
        let sq = a.mul(&a);
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
        assert_eq!(n(0).mul(&a), BigUint::zero());
        assert_eq!(BigUint::one().mul(&a), a);
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_hex("1");
        assert_eq!(a.shl(200).shr(200), a);
        assert_eq!(a.shl(64).to_hex(), "10000000000000000");
        assert_eq!(a.shl(65).shr(1).to_hex(), "10000000000000000");
        assert_eq!(a.shr(1), BigUint::zero());
    }

    #[test]
    fn bits_and_bit() {
        let a = BigUint::from_hex("8000000000000001");
        assert_eq!(a.bits(), 64);
        assert!(a.bit(0));
        assert!(a.bit(63));
        assert!(!a.bit(1));
        assert!(!a.bit(64));
    }

    #[test]
    fn cmp_total_order() {
        let a = BigUint::from_hex("ff");
        let b = BigUint::from_hex("100");
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(b.cmp(&a), Ordering::Greater);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let bound = BigUint::from_hex("abcdef0123456789");
        for _ in 0..50 {
            let r = BigUint::random_below(&bound, &mut rng);
            assert!(r.cmp(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn random_bits_has_top_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for bits in [1usize, 63, 64, 65, 160, 512] {
            let r = BigUint::random_bits(bits, &mut rng);
            assert_eq!(r.bits(), bits, "bits={bits}");
        }
    }

    #[test]
    fn gcd_values() {
        assert_eq!(n(48).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(13)), n(1));
        assert_eq!(n(0).gcd(&n(5)), n(5));
    }

    #[test]
    fn padded_serialization() {
        let v = BigUint::from_u64(0xabcd);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0xab, 0xcd]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = n(1).sub(&n(2));
    }
}
