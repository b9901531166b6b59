//! DSA (FIPS 186 style) over generated domain parameters.
//!
//! Table 4's baseline rows include DSA-1024 sign (96.71 ms on the Nokia
//! 770) and verify (118.73 ms) — notable because DSA *verification* is the
//! expensive direction, the worst case for per-packet authentication by
//! relays. Domain parameters are generated with
//! [`alpha_bignum::prime::gen_dsa_primes`]; the Table 4 harness uses
//! 1024/160-bit domains, tests use smaller ones for speed.

use alpha_bignum::{prime, BigUint};
use alpha_crypto::Algorithm;
use rand::RngCore;

/// DSA domain parameters `(p, q, g)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsaParams {
    p: BigUint,
    q: BigUint,
    g: BigUint,
}

impl DsaParams {
    /// Generate a domain with a `p_bits` modulus and `q_bits` subgroup.
    #[must_use]
    pub fn generate(p_bits: usize, q_bits: usize, rng: &mut dyn RngCore) -> DsaParams {
        let (p, q) = prime::gen_dsa_primes(p_bits, q_bits, rng);
        let one = BigUint::one();
        let exp = p.sub(&one).div_rem(&q).0;
        let mut h = BigUint::from_u64(2);
        let g = loop {
            let g = h.modpow(&exp, &p);
            if !g.is_one() && !g.is_zero() {
                break g;
            }
            h = h.add(&one);
        };
        DsaParams { p, q, g }
    }

    /// Subgroup order `q`.
    #[must_use]
    pub fn q(&self) -> &BigUint {
        &self.q
    }

    /// Hash `msg` and reduce to the leftmost `q.bits()` bits (FIPS 186 §4.6).
    fn hash_to_z(&self, alg: Algorithm, msg: &[u8]) -> BigUint {
        let h = alg.hash(msg);
        let z = BigUint::from_bytes_be(h.as_bytes());
        let hash_bits = h.len() * 8;
        let q_bits = self.q.bits();
        if hash_bits > q_bits {
            z.shr(hash_bits - q_bits)
        } else {
            z
        }
    }
}

/// Largest prime modulus p a decoded public key may carry: a
/// stranger's HS1 chooses the key it is verified under, so the size
/// bounds what one handshake can cost.
const MAX_P_BITS: usize = 3072;
/// Largest subgroup order q a decoded public key may carry.
const MAX_Q_BITS: usize = 256;

/// Public DSA key: domain plus `y = g^x mod p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsaPublicKey {
    params: DsaParams,
    y: BigUint,
}

/// Private DSA key.
#[derive(Debug, Clone)]
pub struct DsaPrivateKey {
    public: DsaPublicKey,
    x: BigUint,
}

/// A DSA signature `(r, s)`, serialized as two length-prefixed integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsaSignature {
    /// `(g^k mod p) mod q`.
    pub r: BigUint,
    /// `k^{-1}(z + xr) mod q`.
    pub s: BigUint,
}

impl DsaSignature {
    /// Serialize as `len(r) || r || len(s) || s` with u16 lengths.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let rb = self.r.to_bytes_be();
        let sb = self.s.to_bytes_be();
        let mut out = Vec::with_capacity(4 + rb.len() + sb.len());
        out.extend_from_slice(&(rb.len() as u16).to_be_bytes());
        out.extend_from_slice(&rb);
        out.extend_from_slice(&(sb.len() as u16).to_be_bytes());
        out.extend_from_slice(&sb);
        out
    }

    /// Parse the serialization produced by [`DsaSignature::to_bytes`].
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<DsaSignature> {
        if bytes.len() < 2 {
            return None;
        }
        let rlen = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
        let rest = bytes.get(2..2 + rlen)?;
        let r = BigUint::from_bytes_be(rest);
        let tail = bytes.get(2 + rlen..)?;
        if tail.len() < 2 {
            return None;
        }
        let slen = u16::from_be_bytes([tail[0], tail[1]]) as usize;
        if tail.len() != 2 + slen {
            return None;
        }
        let s = BigUint::from_bytes_be(&tail[2..]);
        Some(DsaSignature { r, s })
    }
}

impl DsaPrivateKey {
    /// Generate a key pair in the given domain.
    #[must_use]
    pub fn generate(params: DsaParams, rng: &mut dyn RngCore) -> DsaPrivateKey {
        let x = loop {
            let x = BigUint::random_below(&params.q, rng);
            if !x.is_zero() && !x.is_one() {
                break x;
            }
        };
        let y = params.g.modpow(&x, &params.p);
        DsaPrivateKey {
            public: DsaPublicKey { params, y },
            x,
        }
    }

    /// Convenience: generate domain and key together.
    #[must_use]
    pub fn generate_with_domain(
        p_bits: usize,
        q_bits: usize,
        rng: &mut dyn RngCore,
    ) -> DsaPrivateKey {
        let params = DsaParams::generate(p_bits, q_bits, rng);
        DsaPrivateKey::generate(params, rng)
    }

    /// The public half.
    #[must_use]
    pub fn public_key(&self) -> &DsaPublicKey {
        &self.public
    }

    /// Sign `msg`; retries internally on the (negligible) r = 0 / s = 0 cases.
    #[must_use]
    pub fn sign(&self, alg: Algorithm, msg: &[u8], rng: &mut dyn RngCore) -> DsaSignature {
        let p = &self.public.params.p;
        let q = &self.public.params.q;
        let g = &self.public.params.g;
        let z = self.public.params.hash_to_z(alg, msg);
        loop {
            let k = BigUint::random_below(q, rng);
            if k.is_zero() {
                continue;
            }
            let r = g.modpow(&k, p).rem(q);
            if r.is_zero() {
                continue;
            }
            let Some(kinv) = k.mod_inverse(q) else {
                continue;
            };
            let s = kinv.mul_mod(&z.add(&self.x.mul_mod(&r, q)).rem(q), q);
            if s.is_zero() {
                continue;
            }
            return DsaSignature { r, s };
        }
    }
}

impl DsaPublicKey {
    /// Serialize as length-prefixed `(p, q, g, y)`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for n in [&self.params.p, &self.params.q, &self.params.g, &self.y] {
            crate::wirefmt::put(&mut out, n);
        }
        out
    }

    /// Parse the [`DsaPublicKey::to_bytes`] form. Refuses a p over
    /// [`MAX_P_BITS`] or a q over [`MAX_Q_BITS`], and requires q < p,
    /// 1 < g < p and 1 < y < p.
    #[must_use]
    pub fn from_bytes(mut bytes: &[u8]) -> Option<DsaPublicKey> {
        let p = crate::wirefmt::get(&mut bytes)?;
        let q = crate::wirefmt::get(&mut bytes)?;
        let g = crate::wirefmt::get(&mut bytes)?;
        let y = crate::wirefmt::get(&mut bytes)?;
        let inside = |v: &BigUint| !v.is_zero() && !v.is_one() && *v < p;
        let sized = p.bits() <= MAX_P_BITS && q.bits() <= MAX_Q_BITS;
        if !bytes.is_empty() || !sized || q.is_zero() || q >= p || !inside(&g) || !inside(&y) {
            return None;
        }
        Some(DsaPublicKey {
            params: DsaParams { p, q, g },
            y,
        })
    }

    /// Verify a signature.
    #[must_use]
    pub fn verify(&self, alg: Algorithm, msg: &[u8], sig: &DsaSignature) -> bool {
        let p = &self.params.p;
        let q = &self.params.q;
        let g = &self.params.g;
        let zero = BigUint::zero();
        if sig.r <= zero || sig.r >= *q || sig.s <= zero || sig.s >= *q {
            return false;
        }
        let Some(w) = sig.s.mod_inverse(q) else {
            return false;
        };
        let z = self.params.hash_to_z(alg, msg);
        let u1 = z.mul_mod(&w, q);
        let u2 = sig.r.mul_mod(&w, q);
        let v = g.modpow(&u1, p).mul_mod(&self.y.modpow(&u2, p), p).rem(q);
        v == sig.r
    }

    /// Verify a serialized signature.
    #[must_use]
    pub fn verify_bytes(&self, alg: Algorithm, msg: &[u8], sig: &[u8]) -> bool {
        match DsaSignature::from_bytes(sig) {
            Some(s) => self.verify(alg, msg, &s),
            None => false,
        }
    }
}

impl crate::Signer for DsaPrivateKey {
    fn sign(&self, alg: Algorithm, msg: &[u8], rng: &mut dyn RngCore) -> Vec<u8> {
        DsaPrivateKey::sign(self, alg, msg, rng).to_bytes()
    }

    fn verifying_key(&self) -> crate::PublicKey {
        crate::PublicKey::Dsa(self.public.clone())
    }
}

impl crate::VerifyingKey for DsaPublicKey {
    fn verify(&self, alg: Algorithm, msg: &[u8], sig: &[u8]) -> bool {
        self.verify_bytes(alg, msg, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(55)
    }

    fn test_key(r: &mut rand::rngs::StdRng) -> DsaPrivateKey {
        // Small domain for test speed; harnesses use 1024/160.
        DsaPrivateKey::generate_with_domain(256, 128, r)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut r = rng();
        let key = test_key(&mut r);
        let sig = key.sign(Algorithm::Sha1, b"anchor bytes", &mut r);
        assert!(key
            .public_key()
            .verify(Algorithm::Sha1, b"anchor bytes", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let mut r = rng();
        let key = test_key(&mut r);
        let sig = key.sign(Algorithm::Sha1, b"message", &mut r);
        assert!(!key.public_key().verify(Algorithm::Sha1, b"messagE", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut r = rng();
        let key = test_key(&mut r);
        let sig = key.sign(Algorithm::Sha1, b"message", &mut r);
        let bad_r = DsaSignature {
            r: sig.r.add(&BigUint::one()),
            s: sig.s.clone(),
        };
        let bad_s = DsaSignature {
            r: sig.r.clone(),
            s: sig.s.add(&BigUint::one()),
        };
        assert!(!key.public_key().verify(Algorithm::Sha1, b"message", &bad_r));
        assert!(!key.public_key().verify(Algorithm::Sha1, b"message", &bad_s));
    }

    #[test]
    fn out_of_range_components_rejected() {
        let mut r = rng();
        let key = test_key(&mut r);
        let q = key.public_key().params.q.clone();
        let sig = DsaSignature {
            r: q.clone(),
            s: BigUint::one(),
        };
        assert!(!key.public_key().verify(Algorithm::Sha1, b"m", &sig));
        let sig = DsaSignature {
            r: BigUint::zero(),
            s: BigUint::one(),
        };
        assert!(!key.public_key().verify(Algorithm::Sha1, b"m", &sig));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let mut r = rng();
        let key = test_key(&mut r);
        let sig = key.sign(Algorithm::Sha256, b"serialize me", &mut r);
        let bytes = sig.to_bytes();
        assert_eq!(DsaSignature::from_bytes(&bytes), Some(sig.clone()));
        assert!(key
            .public_key()
            .verify_bytes(Algorithm::Sha256, b"serialize me", &bytes));
        // Truncated forms rejected.
        assert!(DsaSignature::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(DsaSignature::from_bytes(&[]).is_none());
    }

    #[test]
    fn signatures_randomized_per_call() {
        let mut r = rng();
        let key = test_key(&mut r);
        let s1 = key.sign(Algorithm::Sha1, b"m", &mut r);
        let s2 = key.sign(Algorithm::Sha1, b"m", &mut r);
        assert_ne!(s1, s2); // fresh k each time
        assert!(key.public_key().verify(Algorithm::Sha1, b"m", &s1));
        assert!(key.public_key().verify(Algorithm::Sha1, b"m", &s2));
    }

    /// A decoded public key is bounded: p at most 3072 bits, q at most
    /// 256 and below p, g and y strictly between 1 and p. Lower bounds
    /// are not checked.
    #[test]
    fn public_key_decode_refuses_oversized_and_out_of_range_keys() {
        let key = test_key(&mut rng()).public_key().clone();
        assert_eq!(DsaPublicKey::from_bytes(&key.to_bytes()), Some(key.clone()));
        let decode = |p: &BigUint, q: &BigUint, g: &BigUint, y: &BigUint| {
            let (p, q, g, y) = (p.clone(), q.clone(), g.clone(), y.clone());
            let params = DsaParams { p, q, g };
            DsaPublicKey::from_bytes(&DsaPublicKey { params, y }.to_bytes())
        };
        let odd = |bits: usize| BigUint::one().shl(bits).sub(&BigUint::one());
        let two = BigUint::from_u64(2);
        let DsaParams { p, q, g } = &key.params;
        let y = &key.y;
        // The widest sizes still accepted.
        assert!(decode(&odd(3072), &odd(256), &two, &two).is_some());
        // One bit too wide.
        assert!(decode(&odd(3073), q, &two, &two).is_none());
        assert!(decode(&odd(3072), &odd(257), &two, &two).is_none());
        // q must sit below p.
        assert!(decode(p, p, g, y).is_none());
        assert!(decode(&odd(200), &odd(201), &two, &two).is_none());
        assert!(decode(p, &BigUint::zero(), g, y).is_none());
        // g and y strictly between 1 and p.
        for bad in [BigUint::zero(), BigUint::one(), p.clone(), p.add(&two)] {
            assert!(decode(p, q, &bad, y).is_none(), "g = {bad:?}");
            assert!(decode(p, q, g, &bad).is_none(), "y = {bad:?}");
        }
    }

    #[test]
    fn cross_key_rejected() {
        let mut r = rng();
        let k1 = test_key(&mut r);
        let k2 = test_key(&mut r);
        let sig = k1.sign(Algorithm::Sha1, b"m", &mut r);
        assert!(!k2.public_key().verify(Algorithm::Sha1, b"m", &sig));
    }
}
