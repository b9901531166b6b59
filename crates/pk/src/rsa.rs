//! RSA signatures with EMSA-PKCS1-v1.5 encoding.
//!
//! Table 4 prices RSA-1024 sign at 181.32 ms on the Nokia 770 versus
//! 0.33–1.60 ms for a full ALPHA step — the two-orders-of-magnitude gap
//! that motivates the whole protocol. This implementation exists to
//! reproduce that gap with real arithmetic (and to sign anchors in the
//! protected bootstrap), not to be a hardened RSA: it uses CRT without
//! fault-attack countermeasures and is not constant time.

use alpha_bignum::{prime, BigUint};
use alpha_crypto::Algorithm;
use rand::RngCore;

/// DER DigestInfo prefixes for EMSA-PKCS1-v1.5 (RFC 8017 §9.2 notes).
fn digest_info_prefix(alg: Algorithm) -> &'static [u8] {
    match alg {
        Algorithm::Sha1 => &[
            0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04,
            0x14,
        ],
        Algorithm::Sha256 => &[
            0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
            0x01, 0x05, 0x00, 0x04, 0x20,
        ],
        // MMO has no registered OID; use a private-arc-style marker. Both
        // sides of this workspace agree on it, which is all the bootstrap
        // needs.
        Algorithm::MmoAes => &[0x30, 0x14, 0x30, 0x04, 0x06, 0x02, 0x2a, 0x00, 0x04, 0x10],
    }
}

/// Largest modulus a decoded public key may carry. A stranger's HS1
/// chooses the key it is verified under, so the size bounds what one
/// handshake can cost.
const MAX_MODULUS_BITS: usize = 4096;
/// Public exponents must stay below `2^MAX_EXPONENT_BITS`.
const MAX_EXPONENT_BITS: usize = 32;

/// Public RSA key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// Private RSA key with CRT components.
#[derive(Debug, Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl RsaPublicKey {
    /// Modulus size in bytes (the signature length).
    #[must_use]
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// Serialize as length-prefixed `(n, e)`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        crate::wirefmt::put(&mut out, &self.n);
        crate::wirefmt::put(&mut out, &self.e);
        out
    }

    /// Parse the [`RsaPublicKey::to_bytes`] form. Refuses a modulus
    /// over [`MAX_MODULUS_BITS`] and an exponent that is even, below 3
    /// or at least `2^32`.
    #[must_use]
    pub fn from_bytes(mut bytes: &[u8]) -> Option<RsaPublicKey> {
        let n = crate::wirefmt::get(&mut bytes)?;
        let e = crate::wirefmt::get(&mut bytes)?;
        let e_ok = !e.is_even() && e.bits() > 1 && e.bits() <= MAX_EXPONENT_BITS;
        if !bytes.is_empty() || n.is_zero() || n.bits() > MAX_MODULUS_BITS || !e_ok {
            return None;
        }
        Some(RsaPublicKey { n, e })
    }

    /// Verify an EMSA-PKCS1-v1.5 signature.
    #[must_use]
    pub fn verify(&self, alg: Algorithm, msg: &[u8], sig: &[u8]) -> bool {
        if sig.len() != self.modulus_len() {
            return false;
        }
        let s = BigUint::from_bytes_be(sig);
        if s.cmp(&self.n) != std::cmp::Ordering::Less {
            return false;
        }
        let em = s
            .modpow(&self.e, &self.n)
            .to_bytes_be_padded(self.modulus_len());
        match emsa_pkcs1_v15(alg, msg, self.modulus_len()) {
            Some(expected) => alpha_crypto::ct_eq(&em, &expected),
            None => false,
        }
    }
}

impl RsaPrivateKey {
    /// Generate a key with a modulus of `bits` bits and `e = 65537`.
    ///
    /// Tests use 512-bit keys for speed; the Table 4 harness generates
    /// 1024-bit keys (release builds) to match the paper.
    #[must_use]
    pub fn generate(bits: usize, rng: &mut dyn RngCore) -> RsaPrivateKey {
        assert!(
            bits >= 128 && bits.is_multiple_of(2),
            "unsupported modulus size"
        );
        let e = BigUint::from_u64(65537);
        let one = BigUint::one();
        loop {
            let p = prime::gen_prime(bits / 2, rng);
            let q = prime::gen_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bits() != bits {
                continue;
            }
            let phi = p.sub(&one).mul(&q.sub(&one));
            let Some(d) = e.mod_inverse(&phi) else {
                continue;
            };
            let dp = d.rem(&p.sub(&one));
            let dq = d.rem(&q.sub(&one));
            let Some(qinv) = q.mod_inverse(&p) else {
                continue;
            };
            return RsaPrivateKey {
                public: RsaPublicKey { n, e },
                d,
                p,
                q,
                dp,
                dq,
                qinv,
            };
        }
    }

    /// The public half.
    #[must_use]
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Sign `msg` with EMSA-PKCS1-v1.5 padding and CRT exponentiation.
    #[must_use]
    pub fn sign(&self, alg: Algorithm, msg: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15(alg, msg, k).expect("modulus sized for digest");
        let m = BigUint::from_bytes_be(&em);
        // CRT: s_p = m^dp mod p, s_q = m^dq mod q, recombine.
        let sp = m.modpow(&self.dp, &self.p);
        let sq = m.modpow(&self.dq, &self.q);
        let h = self
            .qinv
            .mul_mod(&sp.sub_mod(&sq.rem(&self.p), &self.p), &self.p);
        let s = sq.add(&self.q.mul(&h));
        debug_assert_eq!(
            s.modpow(&self.public.e, &self.public.n),
            m.rem(&self.public.n)
        );
        s.to_bytes_be_padded(k)
    }

    /// Serialize the full private key (length-prefixed components).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for n in [
            &self.public.n,
            &self.public.e,
            &self.d,
            &self.p,
            &self.q,
            &self.dp,
            &self.dq,
            &self.qinv,
        ] {
            crate::wirefmt::put(&mut out, n);
        }
        out
    }

    /// Parse the [`RsaPrivateKey::to_bytes`] form.
    #[must_use]
    pub fn from_bytes(mut bytes: &[u8]) -> Option<RsaPrivateKey> {
        let mut parts = Vec::with_capacity(8);
        for _ in 0..8 {
            parts.push(crate::wirefmt::get(&mut bytes)?);
        }
        if !bytes.is_empty() || parts.iter().any(BigUint::is_zero) {
            return None;
        }
        let mut it = parts.into_iter();
        let (n, e, d, p, q, dp, dq, qinv) = (
            it.next()?,
            it.next()?,
            it.next()?,
            it.next()?,
            it.next()?,
            it.next()?,
            it.next()?,
            it.next()?,
        );
        Some(RsaPrivateKey {
            public: RsaPublicKey { n, e },
            d,
            p,
            q,
            dp,
            dq,
            qinv,
        })
    }

    /// Non-CRT signing (for the ablation bench comparing CRT speedup).
    #[must_use]
    pub fn sign_no_crt(&self, alg: Algorithm, msg: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15(alg, msg, k).expect("modulus sized for digest");
        let m = BigUint::from_bytes_be(&em);
        m.modpow(&self.d, &self.public.n).to_bytes_be_padded(k)
    }
}

impl crate::Signer for RsaPrivateKey {
    fn sign(&self, alg: Algorithm, msg: &[u8], _rng: &mut dyn RngCore) -> Vec<u8> {
        RsaPrivateKey::sign(self, alg, msg)
    }

    fn verifying_key(&self) -> crate::PublicKey {
        crate::PublicKey::Rsa(self.public.clone())
    }
}

/// EMSA-PKCS1-v1.5: `0x00 0x01 FF… 0x00 || DigestInfo || H(msg)`.
/// Returns `None` if the modulus is too small for the digest.
fn emsa_pkcs1_v15(alg: Algorithm, msg: &[u8], k: usize) -> Option<Vec<u8>> {
    let h = alg.hash(msg);
    let prefix = digest_info_prefix(alg);
    let t_len = prefix.len() + h.len();
    if k < t_len + 11 {
        return None;
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(prefix);
    em.extend_from_slice(h.as_bytes());
    debug_assert_eq!(em.len(), k);
    Some(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut r = rng();
        let key = RsaPrivateKey::generate(512, &mut r);
        for alg in [Algorithm::Sha1, Algorithm::Sha256] {
            let sig = key.sign(alg, b"hash chain anchor");
            assert_eq!(sig.len(), 64);
            assert!(key.public_key().verify(alg, b"hash chain anchor", &sig));
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let mut r = rng();
        let key = RsaPrivateKey::generate(512, &mut r);
        let sig = key.sign(Algorithm::Sha1, b"original");
        assert!(!key.public_key().verify(Algorithm::Sha1, b"Original", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut r = rng();
        let key = RsaPrivateKey::generate(512, &mut r);
        let mut sig = key.sign(Algorithm::Sha1, b"msg");
        sig[10] ^= 1;
        assert!(!key.public_key().verify(Algorithm::Sha1, b"msg", &sig));
        // Wrong length rejected outright.
        assert!(!key.public_key().verify(Algorithm::Sha1, b"msg", &sig[1..]));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut r = rng();
        let k1 = RsaPrivateKey::generate(512, &mut r);
        let k2 = RsaPrivateKey::generate(512, &mut r);
        let sig = k1.sign(Algorithm::Sha1, b"msg");
        assert!(!k2.public_key().verify(Algorithm::Sha1, b"msg", &sig));
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let mut r = rng();
        let key = RsaPrivateKey::generate(512, &mut r);
        assert_eq!(
            key.sign(Algorithm::Sha1, b"x"),
            key.sign_no_crt(Algorithm::Sha1, b"x")
        );
    }

    #[test]
    fn wrong_algorithm_rejected() {
        let mut r = rng();
        let key = RsaPrivateKey::generate(512, &mut r);
        let sig = key.sign(Algorithm::Sha1, b"msg");
        assert!(!key.public_key().verify(Algorithm::Sha256, b"msg", &sig));
    }

    /// A decoded public key is bounded: n at most 4096 bits, e odd and
    /// in `3..2^32`. Lower bounds are not checked.
    #[test]
    fn public_key_decode_refuses_oversized_and_degenerate_keys() {
        let decode = |n: &BigUint, e: &BigUint| {
            let (n, e) = (n.clone(), e.clone());
            RsaPublicKey::from_bytes(&RsaPublicKey { n, e }.to_bytes())
        };
        let odd = |bits: usize| BigUint::one().shl(bits).sub(&BigUint::one());
        let e = BigUint::from_u64(65537);
        let key = RsaPrivateKey::generate(512, &mut rng())
            .public_key()
            .clone();
        assert_eq!(RsaPublicKey::from_bytes(&key.to_bytes()), Some(key));
        // The largest key still accepted: a 4096-bit n, e = 2^32 - 1.
        assert!(decode(&odd(4096), &odd(32)).is_some());
        assert!(decode(&odd(4096), &BigUint::from_u64(3)).is_some());
        // A modulus one bit too wide.
        assert!(decode(&odd(4097), &e).is_none());
        // A 512-byte n with a 512-byte e: the n is in range, the e is not.
        assert!(decode(&odd(4096), &odd(4096)).is_none());
        for bad_e in [0, 1, 2, 4, 65536, 1 << 32, (1 << 32) + 1, u64::MAX] {
            assert!(
                decode(&odd(512), &BigUint::from_u64(bad_e)).is_none(),
                "e = {bad_e}"
            );
        }
        assert!(decode(&BigUint::zero(), &e).is_none());
    }

    #[test]
    fn modulus_too_small_for_digest() {
        assert!(emsa_pkcs1_v15(Algorithm::Sha256, b"m", 32).is_none());
        assert!(emsa_pkcs1_v15(Algorithm::Sha1, b"m", 64).is_some());
    }
}
