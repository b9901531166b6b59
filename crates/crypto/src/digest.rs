//! Hash algorithm selection and the fixed-capacity [`Digest`] value type.
//!
//! ALPHA treats the hash function as a pluggable parameter: the paper uses
//! 20-byte SHA-1 digests on end hosts and routers (Tables 4–6, Figs. 5–6)
//! and 16-byte MMO/AES-128 digests on sensor nodes (§4.1.3). The [`Algorithm`]
//! enum selects the function at association setup, and [`Digest`] stores any
//! output inline (no allocation) so chains, trees and packets can move
//! digests around freely.

use crate::counting;

/// Largest digest this crate produces (SHA-256).
pub const MAX_DIGEST_LEN: usize = 32;

/// The hash functions evaluated in the paper, plus SHA-256 as a modern
/// option with the same API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// SHA-1: 20-byte output; the function used for all WMN / end-host
    /// numbers in the paper (Tables 4, 5, 6 and Figures 5, 6).
    Sha1,
    /// SHA-256: 32-byte output; not in the paper, provided as a
    /// contemporary drop-in for deployments that cannot use SHA-1.
    Sha256,
    /// Matyas-Meyer-Oseas over AES-128: 16-byte output; the sensor-node
    /// function of §4.1.3 (the CC2430's AES hardware computes the block
    /// cipher, which is why it is attractive on that class of device).
    MmoAes,
}

impl Algorithm {
    /// Digest output length in bytes (`s_h` in the paper's formulas).
    #[must_use]
    pub const fn digest_len(self) -> usize {
        match self {
            Algorithm::Sha1 => 20,
            Algorithm::Sha256 => 32,
            Algorithm::MmoAes => 16,
        }
    }

    /// Internal block length in bytes (the HMAC block size).
    #[must_use]
    pub const fn block_len(self) -> usize {
        match self {
            Algorithm::Sha1 | Algorithm::Sha256 => 64,
            Algorithm::MmoAes => 16,
        }
    }

    /// Hash `data` in one shot.
    #[must_use]
    pub fn hash(self, data: &[u8]) -> Digest {
        let mut h = Hasher::new(self);
        h.update(data);
        h.finish()
    }

    /// Hash the concatenation of several byte strings without building an
    /// intermediate buffer. Chains, trees and MAC constructions are all
    /// hashes over short concatenations, so this is the workhorse.
    #[must_use]
    pub fn hash_parts(self, parts: &[&[u8]]) -> Digest {
        let mut h = Hasher::new(self);
        for p in parts {
            h.update(p);
        }
        h.finish()
    }

    /// All algorithms, for exhaustive tests and benches.
    pub const ALL: [Algorithm; 3] = [Algorithm::Sha1, Algorithm::Sha256, Algorithm::MmoAes];
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Sha1 => write!(f, "SHA-1"),
            Algorithm::Sha256 => write!(f, "SHA-256"),
            Algorithm::MmoAes => write!(f, "MMO-AES-128"),
        }
    }
}

/// A hash output, stored inline with its length.
///
/// Equality is implemented in constant time (see [`crate::ct_eq`]); ordering
/// and hashing use only the initialized prefix.
#[derive(Clone, Copy)]
pub struct Digest {
    len: u8,
    bytes: [u8; MAX_DIGEST_LEN],
}

impl Digest {
    /// Wrap raw digest bytes. Panics if `bytes` exceeds [`MAX_DIGEST_LEN`];
    /// inputs come from this crate or from length-checked packet parsing.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Digest {
        assert!(bytes.len() <= MAX_DIGEST_LEN, "digest too long");
        let mut b = [0u8; MAX_DIGEST_LEN];
        b[..bytes.len()].copy_from_slice(bytes);
        Digest {
            len: bytes.len() as u8,
            bytes: b,
        }
    }

    /// Serialize a SHA state (big-endian words) as its digest.
    pub(crate) fn from_be_words(words: &[u32]) -> Digest {
        let mut bytes = [0u8; MAX_DIGEST_LEN];
        for (chunk, word) in bytes.chunks_exact_mut(4).zip(words) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest {
            len: (words.len() * 4) as u8,
            bytes,
        }
    }

    /// The all-zero digest of `alg`'s output length; used as the padding
    /// leaf for non-power-of-two Merkle trees.
    #[must_use]
    pub fn zero(alg: Algorithm) -> Digest {
        Digest {
            len: alg.digest_len() as u8,
            bytes: [0u8; MAX_DIGEST_LEN],
        }
    }

    /// Digest contents.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Output length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True only for the (never produced) zero-length digest.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hex rendering for logs and experiment output.
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl PartialEq for Digest {
    fn eq(&self, other: &Digest) -> bool {
        crate::ct_eq(self.as_bytes(), other.as_bytes())
    }
}

impl Eq for Digest {}

impl std::hash::Hash for Digest {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// Merkle–Damgård strengthening, shared by the three streaming contexts:
/// `buf[..n]` is the buffered input tail (`n < B`); append `0x80`, zeros and
/// the 64-bit big-endian bit length in the block's last 8 bytes, spilling
/// into a second block when fewer than 9 bytes are free.
pub(crate) fn md_finish<const B: usize>(
    buf: &mut [u8; B],
    n: usize,
    bit_len: u64,
    mut compress: impl FnMut(&[u8; B]),
) {
    buf[n] = 0x80;
    buf[n + 1..].fill(0);
    if n + 9 > B {
        compress(buf);
        buf.fill(0);
    }
    buf[B - 8..].copy_from_slice(&bit_len.to_be_bytes());
    compress(buf);
}

/// Streaming hash context over any [`Algorithm`].
///
/// Every `finish` reports one logical hash invocation (with the total input
/// length) to [`crate::counting`], which is how the Table 1 harness counts
/// operations without touching protocol code.
pub struct Hasher {
    inner: HasherInner,
    fed: usize,
}

enum HasherInner {
    Sha1(crate::sha1::Sha1),
    Sha256(crate::sha256::Sha256),
    Mmo(crate::mmo::Mmo),
}

impl Hasher {
    /// Fresh context for `alg`.
    #[must_use]
    pub fn new(alg: Algorithm) -> Hasher {
        let inner = match alg {
            Algorithm::Sha1 => HasherInner::Sha1(crate::sha1::Sha1::new()),
            Algorithm::Sha256 => HasherInner::Sha256(crate::sha256::Sha256::new()),
            Algorithm::MmoAes => HasherInner::Mmo(crate::mmo::Mmo::new()),
        };
        Hasher { inner, fed: 0 }
    }

    /// Algorithm this context runs.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        match self.inner {
            HasherInner::Sha1(_) => Algorithm::Sha1,
            HasherInner::Sha256(_) => Algorithm::Sha256,
            HasherInner::Mmo(_) => Algorithm::MmoAes,
        }
    }

    /// Absorb input bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.fed += data.len();
        match &mut self.inner {
            HasherInner::Sha1(h) => h.update(data),
            HasherInner::Sha256(h) => h.update(data),
            HasherInner::Mmo(h) => h.update(data),
        }
    }

    /// Finalize and produce the digest.
    #[must_use]
    pub fn finish(self) -> Digest {
        counting::record(self.algorithm(), self.fed);
        match self.inner {
            HasherInner::Sha1(h) => Digest::from_slice(&h.finish()),
            HasherInner::Sha256(h) => Digest::from_slice(&h.finish()),
            HasherInner::Mmo(h) => Digest::from_slice(&h.finish()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        assert_eq!(Algorithm::Sha1.digest_len(), 20);
        assert_eq!(Algorithm::Sha256.digest_len(), 32);
        assert_eq!(Algorithm::MmoAes.digest_len(), 16);
        for alg in Algorithm::ALL {
            assert_eq!(alg.hash(b"abc").len(), alg.digest_len());
        }
    }

    #[test]
    fn hash_parts_matches_concat() {
        for alg in Algorithm::ALL {
            let whole = alg.hash(b"hello world, this spans blocks when repeated often enough");
            let parts = alg.hash_parts(&[
                b"hello world, ",
                b"this spans blocks ",
                b"when repeated often enough",
            ]);
            assert_eq!(whole, parts);
        }
    }

    #[test]
    fn digest_roundtrip() {
        let d = Algorithm::Sha1.hash(b"roundtrip");
        let d2 = Digest::from_slice(d.as_bytes());
        assert_eq!(d, d2);
        assert_eq!(d.to_hex().len(), 40);
    }

    #[test]
    fn zero_digest() {
        let z = Digest::zero(Algorithm::MmoAes);
        assert_eq!(z.len(), 16);
        assert!(z.as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn streaming_equals_oneshot() {
        for alg in Algorithm::ALL {
            let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
            let oneshot = alg.hash(&data);
            let mut h = Hasher::new(alg);
            for chunk in data.chunks(17) {
                h.update(chunk);
            }
            assert_eq!(h.finish(), oneshot);
        }
    }
}
