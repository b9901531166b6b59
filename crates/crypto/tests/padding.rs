//! Padding equivalence that is not common-mode: the streaming hasher's
//! one-step `finish` padding against implementations that share none of
//! its code.
//!
//! - SHA-1 / SHA-256: `digest_batch` pads through `PartsRef::fill_block64`
//!   and never touches `Hasher::finish`, so agreement between the two pins
//!   both; committed known answers from coreutils `sha1sum` / `sha256sum`
//!   pin them to the outside world at the padding edges.
//! - MMO: `digest_batch` *is* the streaming hasher there, so the reference
//!   is a padded-buffer construction written out in this file.
//!
//! ci.sh runs the suite under every forced `ALPHA_DIGEST_BACKEND` tier.

use alpha_crypto::aes::Aes128;
use alpha_crypto::{backend, Algorithm, Digest, Hasher};

/// Lengths where the 9 padding bytes stop fitting the last block (55/56,
/// 119/120) or the input ends on the block edge (63/64).
const SPLIT_LENS: [usize; 6] = [55, 56, 63, 64, 119, 120];

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + 3) as u8).collect()
}

/// MMO over a buffer padded by hand: data, `0x80`, zeros up to 8 bytes
/// short of a 16-byte boundary, then the 64-bit big-endian bit length.
fn mmo_reference(data: &[u8]) -> Digest {
    let mut padded = data.to_vec();
    padded.push(0x80);
    while padded.len() % 16 != 8 {
        padded.push(0);
    }
    padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state = [0u8; 16];
    for block in padded.chunks_exact(16) {
        let block: [u8; 16] = block.try_into().expect("chunks_exact(16)");
        let mut next = Aes128::new(&state).encrypt(&block);
        for (n, b) in next.iter_mut().zip(block) {
            *n ^= b;
        }
        state = next;
    }
    Digest::from_slice(&state)
}

/// The digest of `data` by code that does not run `Hasher::finish`.
fn independent(alg: Algorithm, data: &[u8]) -> Digest {
    match alg {
        Algorithm::MmoAes => mmo_reference(data),
        Algorithm::Sha1 | Algorithm::Sha256 => {
            let mut out = [Digest::zero(alg)];
            backend::digest_batch(alg, &[data], &mut out);
            out[0]
        }
    }
}

#[test]
fn streaming_finish_matches_independent_padding_at_every_length() {
    for alg in Algorithm::ALL {
        for len in 0..=200usize {
            let data = pattern(len);
            assert_eq!(alg.hash(&data), independent(alg, &data), "{alg} len={len}");
        }
    }
}

#[test]
fn streaming_finish_is_split_invariant_at_padding_edges() {
    for alg in Algorithm::ALL {
        for len in SPLIT_LENS {
            let data = pattern(len);
            let expect = independent(alg, &data);
            for cut in 0..=len {
                let mut h = Hasher::new(alg);
                h.update(&data[..cut]);
                h.update(&data[cut..]);
                assert_eq!(h.finish(), expect, "{alg} len={len} cut={cut}");
            }
        }
    }
}

/// `sha1sum` / `sha256sum` of `pattern(len)` (coreutils 9, generated with
/// `python3 -c 'sys.stdout.buffer.write(bytes((i*7+3)%256 for i in
/// range(len)))' | sha1sum`).
const KNOWN_ANSWERS: [(usize, &str, &str); 5] = [
    (
        55,
        "ddf57317ef34bfee3b6df83d359098930eb278bc",
        "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
    ),
    (
        63,
        "c55856749bef509bdfe6bfebfc7bf4e793e82132",
        "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
    ),
    (
        64,
        "bede92be29c3874e1b54ddc77988d606fc857a8e",
        "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
    ),
    (
        119,
        "504e27376a6e0f0dba8295b85cb25dc4dfa17d23",
        "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
    ),
    (
        120,
        "82134b02fb3f702491be9bed581eeab59334acb2",
        "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
    ),
];

#[test]
fn known_answers_at_padding_edges() {
    for (len, sha1, sha256) in KNOWN_ANSWERS {
        let data = pattern(len);
        for (alg, hex) in [(Algorithm::Sha1, sha1), (Algorithm::Sha256, sha256)] {
            assert_eq!(alg.hash(&data).to_hex(), hex, "{alg} len={len} streaming");
            assert_eq!(
                independent(alg, &data).to_hex(),
                hex,
                "{alg} len={len} batch"
            );
        }
    }
}
