//! HMAC (RFC 2104), generic over the crate's hash [`Algorithm`]s.
//!
//! ALPHA keys each message MAC with the signer's *next undisclosed* hash
//! chain element (`M(h^Ss_{i-1} | m)` in Fig. 2). The paper references the
//! HMAC construction [Bellare, Canetti, Krawczyk] for this; we implement
//! real HMAC rather than a bare prefix hash so the MAC is safe even over
//! Merkle–Damgård functions with known length-extension behaviour.
//!
//! Keys of any length are accepted: longer-than-block keys are hashed first,
//! shorter ones zero-padded, exactly per RFC 2104. In ALPHA the key is
//! always one digest (20 B for SHA-1, 16 B for MMO), i.e. shorter than the
//! block.

use crate::{counting, Algorithm, Digest, Hasher};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Largest block length of any [`Algorithm`]; key blocks live on the stack.
const MAX_BLOCK_LEN: usize = 64;

/// Streaming HMAC context.
pub struct HmacContext {
    alg: Algorithm,
    inner: Hasher,
    /// Zero-padded key; `finish` XORs the outer pad over it.
    key_block: [u8; MAX_BLOCK_LEN],
}

impl HmacContext {
    /// Start an HMAC computation with `key`.
    #[must_use]
    pub fn new(alg: Algorithm, key: &[u8]) -> HmacContext {
        let block = alg.block_len();
        let mut key_block = [0u8; MAX_BLOCK_LEN];
        if key.len() > block {
            let kd = alg.hash(key);
            key_block[..kd.len()].copy_from_slice(kd.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Hasher::new(alg);
        inner.update(&key_block.map(|b| b ^ IPAD)[..block]);
        HmacContext {
            alg,
            inner,
            key_block,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finalize the tag.
    #[must_use]
    pub fn finish(self) -> Digest {
        let inner_digest = self.inner.finish();
        let mut outer = Hasher::new(self.alg);
        outer.update(&self.key_block.map(|b| b ^ OPAD)[..self.alg.block_len()]);
        outer.update(inner_digest.as_bytes());
        counting::record_mac(2);
        outer.finish()
    }
}

/// One-shot HMAC tag over `msg` with `key`.
#[must_use]
pub fn mac(alg: Algorithm, key: &[u8], msg: &[u8]) -> Digest {
    let mut ctx = HmacContext::new(alg, key);
    ctx.update(msg);
    ctx.finish()
}

/// One-shot HMAC over the concatenation of `parts`.
#[must_use]
pub fn mac_parts(alg: Algorithm, key: &[u8], parts: &[&[u8]]) -> Digest {
    let mut ctx = HmacContext::new(alg, key);
    for p in parts {
        ctx.update(p);
    }
    ctx.finish()
}

/// Constant-time tag verification.
#[must_use]
pub fn verify(alg: Algorithm, key: &[u8], msg: &[u8], tag: &Digest) -> bool {
    crate::ct_eq(mac(alg, key, msg).as_bytes(), tag.as_bytes())
}

/// Single-pass *prefix MAC*: `H(key | parts…)`.
///
/// In a generic setting this is weaker than HMAC (Merkle–Damgård length
/// extension lets an attacker append to the message). Inside ALPHA it is
/// sound: the MAC is *committed in the S1 packet before the key is
/// disclosed*, so a verifier only ever compares against the buffered
/// commitment and an extended forgery can never match it. The paper's
/// sensor-node cost figures (§4.1.3) assume this single-pass construction
/// — one MMO invocation per MAC — which is why it exists here alongside
/// HMAC; select per deployment via the protocol configuration.
#[must_use]
pub fn prefix_mac(alg: Algorithm, key: &[u8], parts: &[&[u8]]) -> Digest {
    let mut h = crate::Hasher::new(alg);
    h.update(key);
    for p in parts {
        h.update(p);
    }
    counting::record_mac(1);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.to_hex()
    }

    // RFC 2202 test case 1 (HMAC-SHA-1).
    #[test]
    fn rfc2202_case1() {
        let key = [0x0bu8; 20];
        let tag = mac(Algorithm::Sha1, &key, b"Hi There");
        assert_eq!(hex(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    // RFC 2202 test case 2: key "Jefe".
    #[test]
    fn rfc2202_case2() {
        let tag = mac(Algorithm::Sha1, b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    // RFC 2202 test case 6: 80-byte key (longer than the 64-byte block).
    #[test]
    fn rfc2202_long_key() {
        let key = [0xaau8; 80];
        let tag = mac(
            Algorithm::Sha1,
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&tag), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    // RFC 4231 test case 1 (HMAC-SHA-256).
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = mac(Algorithm::Sha256, &key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        for alg in Algorithm::ALL {
            let key = alg.hash(b"chain element").as_bytes().to_vec();
            let tag = mac(alg, &key, b"payload");
            assert!(verify(alg, &key, b"payload", &tag));
            assert!(!verify(alg, &key, b"payloae", &tag));
            assert!(!verify(alg, b"wrong key", b"payload", &tag));
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let key = b"k";
        let msg: Vec<u8> = (0u8..200).collect();
        for alg in Algorithm::ALL {
            let mut ctx = HmacContext::new(alg, key);
            for chunk in msg.chunks(7) {
                ctx.update(chunk);
            }
            assert_eq!(ctx.finish(), mac(alg, key, &msg));
        }
    }

    #[test]
    fn mac_counts_one_logical_op() {
        crate::counting::reset();
        let _ = mac(Algorithm::Sha1, b"key", b"some message body here");
        let c = crate::counting::snapshot();
        assert_eq!(c.mac_invocations, 1);
        assert_eq!(c.invocations, 2); // inner + outer pass
    }

    #[test]
    fn mac_parts_matches_concat() {
        let key = b"key";
        let a = mac(Algorithm::MmoAes, key, b"part one and part two");
        let b = mac_parts(Algorithm::MmoAes, key, &[b"part one ", b"and part two"]);
        assert_eq!(a, b);
    }
}
