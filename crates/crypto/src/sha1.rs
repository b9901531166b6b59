//! SHA-1 (FIPS 180-4), implemented from scratch.
//!
//! SHA-1 is the hash function the paper uses for every non-sensor
//! measurement: 20-byte chain elements and MACs on the Nokia 770, Xeon, and
//! the three router platforms (Tables 4–6). SHA-1 is cryptographically
//! broken for collision resistance today; it is implemented here because the
//! reproduction must price the *same* primitive the paper priced. The
//! protocol layer accepts [`crate::Algorithm::Sha256`] everywhere SHA-1 is
//! accepted.

/// Initial hash state per FIPS 180-4 §5.3.1.
pub(crate) const INIT: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Streaming SHA-1 context.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Initial hash state per FIPS 180-4 §5.3.1.
    #[must_use]
    pub fn new() -> Sha1 {
        Sha1 {
            state: INIT,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let want = 64 - self.buf_len;
            let take = want.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                crate::backend::sha1_compress(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        // Hand every complete block to the backend in one call so an
        // accelerated implementation can stream them without re-dispatching.
        let full = data.len() - data.len() % 64;
        if full > 0 {
            crate::backend::sha1_compress(&mut self.state, &data[..full]);
            data = &data[full..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finalize: append padding and the 64-bit length, emit 20 bytes.
    #[must_use]
    pub fn finish(mut self) -> [u8; 20] {
        let bit_len = self.total_len.wrapping_mul(8);
        crate::digest::md_finish(&mut self.buf, self.buf_len, bit_len, |block| {
            crate::backend::sha1_compress(&mut self.state, block);
        });
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One scalar SHA-1 compression. This is the universal-fallback backend; the
/// accelerated backends in [`crate::backend`] must match it bit for bit.
pub(crate) fn compress_block(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
            20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
            _ => (b ^ c ^ d, 0xCA62_C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// One-shot SHA-1.
#[must_use]
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / RFC 3174 test vectors.
    #[test]
    fn empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn exact_block_boundaries() {
        // 55/56/63/64/65 bytes straddle the padding edge cases.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xA5u8; len];
            let mut h = Sha1::new();
            h.update(&data);
            let whole = h.finish();
            let mut h2 = Sha1::new();
            for b in &data {
                h2.update(std::slice::from_ref(b));
            }
            assert_eq!(whole, h2.finish(), "len={len}");
        }
    }

    #[test]
    fn rfc3174_repeated() {
        // TEST4 from RFC 3174: 80 repetitions of "01234567".
        let data = b"01234567".repeat(80);
        assert_eq!(
            hex(&sha1(&data)),
            "dea356a2cddd90c7a7ecedc5ebb563934f460452"
        );
    }
}
