//! Matyas-Meyer-Oseas (MMO) hash over AES-128.
//!
//! The paper's WSN evaluation (§4.1.3) uses the MMO construction [Matyas,
//! Meyer, Oseas 1985] because the CC2430 sensor node computes AES-128 in
//! hardware: hashing then costs one block encryption per 16 input bytes.
//! The construction is the classic block-cipher-to-one-way-function scheme
//!
//! ```text
//! H_i = E_{H_{i-1}}(m_i) XOR m_i ,   H_0 = IV
//! ```
//!
//! i.e. the running digest keys the cipher and the message block is both
//! plaintext and feed-forward mask. We add Merkle–Damgård strengthening
//! (unambiguous 0x80 padding plus a 64-bit message length in the final
//! block) so variable-length inputs are handled safely — the paper's inputs
//! (16 B and 84 B strings) are fixed-format, but a library cannot assume
//! that.
//!
//! Output is 16 bytes, which is the `h` in the §4.1.3 overhead computation
//! (16 B chain element + 16 B MAC + 16/5 B pre-signature per packet).

use crate::aes::Aes128;

/// Block and digest size of the construction.
pub const BLOCK_LEN: usize = 16;

/// All-zero IV; any fixed public constant works for MMO, and zero matches
/// common 802.15.4 security-suite implementations of the same construction.
const IV: [u8; 16] = [0u8; 16];

/// Streaming MMO context.
#[derive(Clone)]
pub struct Mmo {
    state: [u8; 16],
    buf: [u8; 16],
    buf_len: usize,
    total_len: u64,
}

impl Default for Mmo {
    fn default() -> Self {
        Self::new()
    }
}

impl Mmo {
    /// Fresh context.
    #[must_use]
    pub fn new() -> Mmo {
        Mmo {
            state: IV,
            buf: [0u8; 16],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let want = BLOCK_LEN - self.buf_len;
            let take = want.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                self.state = Mmo::compress(&self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let (block, rest) = data.split_at(BLOCK_LEN);
            let mut b = [0u8; 16];
            b.copy_from_slice(block);
            self.state = Mmo::compress(&self.state, &b);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finalize with Merkle–Damgård strengthening; emit 16 bytes.
    #[must_use]
    pub fn finish(mut self) -> [u8; 16] {
        let bit_len = self.total_len.wrapping_mul(8);
        crate::digest::md_finish(&mut self.buf, self.buf_len, bit_len, |block| {
            self.state = Mmo::compress(&self.state, block);
        });
        self.state
    }

    /// `E_state(block) XOR block`: the next chaining value.
    fn compress(state: &[u8; 16], block: &[u8; 16]) -> [u8; 16] {
        let mut out = Aes128::new(state).encrypt(block);
        for (o, m) in out.iter_mut().zip(block.iter()) {
            *o ^= m;
        }
        out
    }
}

/// One-shot MMO hash.
#[must_use]
pub fn mmo(data: &[u8]) -> [u8; 16] {
    let mut h = Mmo::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;

    /// Reference recomputation of the single-block case:
    /// one data block + one padding block.
    #[test]
    fn single_block_against_manual() {
        let msg = [0x42u8; 16];
        // Block 1: E_IV(msg) ^ msg.
        let mut state = Aes128::new(&IV).encrypt(&msg);
        for (s, m) in state.iter_mut().zip(msg.iter()) {
            *s ^= m;
        }
        // Padding block: 0x80, zeros, 64-bit bit length (128).
        let mut pad = [0u8; 16];
        pad[0] = 0x80;
        pad[8..].copy_from_slice(&(128u64).to_be_bytes());
        let mut state2 = Aes128::new(&state).encrypt(&pad);
        for (s, m) in state2.iter_mut().zip(pad.iter()) {
            *s ^= m;
        }
        assert_eq!(mmo(&msg), state2);
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(mmo(b"sensor reading 17"), mmo(b"sensor reading 17"));
        assert_ne!(mmo(b"sensor reading 17"), mmo(b"sensor reading 18"));
        assert_ne!(mmo(b""), mmo(b"\0"));
    }

    #[test]
    fn length_extension_blocked_by_strengthening() {
        // H(m) differs from H(m || pad-looking-suffix prefix) — i.e. padding
        // is unambiguous for different lengths of all-zero input.
        let a = mmo(&[0u8; 7]);
        let b = mmo(&[0u8; 8]);
        let c = mmo(&[0u8; 16]);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(84).collect(); // the paper's 84 B case
        let mut h = Mmo::new();
        for chunk in data.chunks(5) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), mmo(&data));
    }

    #[test]
    fn paper_input_sizes() {
        // §4.1.3 prices 16 B and 84 B inputs; both must work and differ.
        let short = mmo(&[0xA5u8; 16]);
        let long = mmo(&[0xA5u8; 84]);
        assert_eq!(short.len(), 16);
        assert_ne!(short, long);
    }
}
