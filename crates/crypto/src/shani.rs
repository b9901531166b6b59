//! x86_64 SHA-NI kernels and the SSE2 4-lane sweeps behind the `Lanes4`
//! tier. **The only module in the crate containing `unsafe`.**
//!
//! Safety argument, once for the whole module: every `unsafe` block here is
//! one of exactly two shapes.
//!
//! 1. A call to a `#[target_feature]` function. Executing such a function on
//!    a CPU without the feature is undefined behaviour. The SHA-NI wrappers
//!    gate the call on the cached `is_x86_feature_detected!` result
//!    (`SHA_NI` below) and fall back to the scalar code when the feature is
//!    absent; backend selection ([`crate::backend::active`] / `force`)
//!    independently refuses `ShaNi` on such CPUs, so that check is defence
//!    in depth, not the only line. The SSE2 wrappers need no check: SSE2 is
//!    part of the x86_64 baseline and this module compiles only on x86_64.
//! 2. `_mm_loadu_si128` / `_mm_storeu_si128` on pointers derived from Rust
//!    references: the `[u32; 5]` / `[u32; 8]` state arrays, a local
//!    `[u32; 4]`, the static `sha256::K` table, and 64-byte block slices
//!    cut by a bounds-checked range index. The `u` forms have no alignment
//!    requirement, and every pointer spans only bytes inside the borrowed
//!    array or slice, so the accesses are in-bounds reads/writes of live
//!    memory.
//!
//! The round sequences follow the canonical Intel SHA extension flows; the
//! property tests in `tests/backend_props.rs` and the in-module tests assert
//! bit-exact equivalence with the scalar implementations for every input
//! length across block boundaries, which is the real guarantee of
//! correctness here.

#![cfg(target_arch = "x86_64")]
// Make the safety boundary explicit even inside `unsafe fn`: every unsafe
// operation must sit in its own block with a SAFETY comment.
#![warn(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;
use std::sync::OnceLock;

use crate::backend::LANES;

static SHA_NI: OnceLock<bool> = OnceLock::new();

pub(crate) fn sha_ni_detected() -> bool {
    *SHA_NI.get_or_init(|| {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    })
}

/// SHA-256 compression of `N` independent streams, each absorbing its own
/// run of 64-byte blocks (equal counts) into its own state; with `N = 2`
/// the second stream's rounds fill the first's instruction latency. Falls
/// back to scalar when SHA-NI is somehow absent (see module safety
/// argument).
pub(crate) fn sha256_compress<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
    assert!(blocks.iter().all(|b| b.len() == blocks[0].len()));
    debug_assert_eq!(blocks[0].len() % 64, 0);
    if sha_ni_detected() {
        // SAFETY: shape 1 — target_feature("sha,ssse3,sse4.1") call gated on
        // sha_ni_detected().
        unsafe { sha256_compress_ni(states, blocks) }
    } else {
        for (state, blocks) in states.iter_mut().zip(blocks) {
            for block in blocks.chunks_exact(64) {
                // Allowlist: chunks_exact(64) yields exactly 64-byte slices.
                let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
                crate::sha256::compress_block(state, block);
            }
        }
    }
}

/// SHA-1 multi-stream compression; same contract as [`sha256_compress`].
pub(crate) fn sha1_compress<const N: usize>(states: &mut [[u32; 5]; N], blocks: [&[u8]; N]) {
    assert!(blocks.iter().all(|b| b.len() == blocks[0].len()));
    debug_assert_eq!(blocks[0].len() % 64, 0);
    if sha_ni_detected() {
        // SAFETY: shape 1 — target_feature("sha,ssse3,sse4.1") call gated on
        // sha_ni_detected().
        unsafe { sha1_compress_ni(states, blocks) }
    } else {
        for (state, blocks) in states.iter_mut().zip(blocks) {
            for block in blocks.chunks_exact(64) {
                // Allowlist: chunks_exact(64) yields exactly 64-byte slices.
                let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
                crate::sha1::compress_block(state, block);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SSE2 4-lane sweeps (the x86_64 kernel behind the Lanes4 tier).
//
// The portable `multilane` code expresses the lockstep computation, but
// LLVM's SLP vectorizer does not vectorize the register-rotating round loops
// (SHA-1 still wins ~2x from bare instruction-level parallelism; SHA-256,
// whose scalar rounds already saturate the pipeline, gains nothing). These
// transcriptions keep each `[u32; 4]` lane vector in one `__m128i`. SSE2 is
// part of the x86_64 baseline, so the arithmetic intrinsics are plain safe
// calls; only the state loads/stores are `unsafe` (shape 2).
// ---------------------------------------------------------------------------

/// Element-wise rotate-left of four packed u32 lanes by a literal amount.
macro_rules! rotl4 {
    ($x:expr, $r:literal) => {
        _mm_or_si128(_mm_slli_epi32::<$r>($x), _mm_srli_epi32::<{ 32 - $r }>($x))
    };
}

// Safe `#[target_feature(enable = "sse2")]` functions: SSE2 is part of the
// x86_64 ABI baseline, so every caller in this (x86_64-only) module
// statically has the feature and the calls are safe (target_feature 1.1).
#[target_feature(enable = "sse2")]
#[inline]
fn load_lane_words(blocks: &[[u8; 64]; LANES], t: usize) -> __m128i {
    let w = |l: usize| {
        let b = &blocks[l];
        u32::from_be_bytes([b[4 * t], b[4 * t + 1], b[4 * t + 2], b[4 * t + 3]]) as i32
    };
    _mm_set_epi32(w(3), w(2), w(1), w(0))
}

/// Safe entry for the SSE2 SHA-256 sweep.
pub(crate) fn sha256_compress4(states: &mut [[u32; 8]; LANES], blocks: &[[u8; 64]; LANES]) {
    // SAFETY: shape 1 — SSE2 is unconditionally part of the x86_64 ABI
    // baseline and this module only compiles on x86_64, so the required
    // target feature is always present.
    unsafe { sha256_compress4_sse(states, blocks) }
}

/// 4-lane SHA-256 sweep over `__m128i` lane vectors; bit-identical per lane
/// to `sha256::compress_block`.
#[target_feature(enable = "sse2")]
fn sha256_compress4_sse(states: &mut [[u32; 8]; LANES], blocks: &[[u8; 64]; LANES]) {
    let mut w = [_mm_setzero_si128(); 64];
    for (t, slot) in w.iter_mut().take(16).enumerate() {
        *slot = load_lane_words(blocks, t);
    }
    for t in 16..64 {
        let x = w[t - 15];
        let s0 = _mm_xor_si128(
            _mm_xor_si128(rotl4!(x, 25), rotl4!(x, 14)),
            _mm_srli_epi32::<3>(x),
        );
        let x = w[t - 2];
        let s1 = _mm_xor_si128(
            _mm_xor_si128(rotl4!(x, 15), rotl4!(x, 13)),
            _mm_srli_epi32::<10>(x),
        );
        w[t] = _mm_add_epi32(_mm_add_epi32(w[t - 16], s0), _mm_add_epi32(w[t - 7], s1));
    }
    let lane = |i: usize| {
        _mm_set_epi32(
            states[3][i] as i32,
            states[2][i] as i32,
            states[1][i] as i32,
            states[0][i] as i32,
        )
    };
    let (mut a, mut b, mut c, mut d) = (lane(0), lane(1), lane(2), lane(3));
    let (mut e, mut f, mut g, mut h) = (lane(4), lane(5), lane(6), lane(7));
    for (t, &wt) in w.iter().enumerate() {
        // rotr(n) == rotl(32-n); only left rotates are spelled out.
        let s1 = _mm_xor_si128(_mm_xor_si128(rotl4!(e, 26), rotl4!(e, 21)), rotl4!(e, 7));
        // ch = (e & f) ^ (!e & g); andnot computes !e & g in one op.
        let ch = _mm_xor_si128(_mm_and_si128(e, f), _mm_andnot_si128(e, g));
        let k = _mm_set1_epi32(crate::sha256::K[t] as i32);
        let t1 = _mm_add_epi32(
            _mm_add_epi32(_mm_add_epi32(h, s1), _mm_add_epi32(ch, k)),
            wt,
        );
        let s0 = _mm_xor_si128(_mm_xor_si128(rotl4!(a, 30), rotl4!(a, 19)), rotl4!(a, 10));
        let maj = _mm_xor_si128(
            _mm_xor_si128(_mm_and_si128(a, b), _mm_and_si128(a, c)),
            _mm_and_si128(b, c),
        );
        let t2 = _mm_add_epi32(s0, maj);
        h = g;
        g = f;
        f = e;
        e = _mm_add_epi32(d, t1);
        d = c;
        c = b;
        b = a;
        a = _mm_add_epi32(t1, t2);
    }
    let vars = [a, b, c, d, e, f, g, h];
    for (i, v) in vars.iter().enumerate() {
        let mut lanes = [0u32; 4];
        // SAFETY: shape 2 — unaligned store of one 16-byte vector into a
        // local 4-word array.
        unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), *v) };
        for l in 0..LANES {
            states[l][i] = states[l][i].wrapping_add(lanes[l]);
        }
    }
}

/// Safe entry for the SSE2 SHA-1 sweep.
pub(crate) fn sha1_compress4(states: &mut [[u32; 5]; LANES], blocks: &[[u8; 64]; LANES]) {
    // SAFETY: shape 1 — SSE2 is unconditionally part of the x86_64 ABI
    // baseline and this module only compiles on x86_64, so the required
    // target feature is always present.
    unsafe { sha1_compress4_sse(states, blocks) }
}

/// 4-lane SHA-1 sweep over `__m128i` lane vectors; bit-identical per lane to
/// `sha1::compress_block`.
#[target_feature(enable = "sse2")]
fn sha1_compress4_sse(states: &mut [[u32; 5]; LANES], blocks: &[[u8; 64]; LANES]) {
    let mut w = [_mm_setzero_si128(); 80];
    for (t, slot) in w.iter_mut().take(16).enumerate() {
        *slot = load_lane_words(blocks, t);
    }
    for t in 16..80 {
        let x = _mm_xor_si128(
            _mm_xor_si128(w[t - 3], w[t - 8]),
            _mm_xor_si128(w[t - 14], w[t - 16]),
        );
        w[t] = rotl4!(x, 1);
    }
    let lane = |i: usize| {
        _mm_set_epi32(
            states[3][i] as i32,
            states[2][i] as i32,
            states[1][i] as i32,
            states[0][i] as i32,
        )
    };
    let (mut a, mut b, mut c, mut d, mut e) = (lane(0), lane(1), lane(2), lane(3), lane(4));
    for (t, &wt) in w.iter().enumerate() {
        let (f, k) = match t {
            // (b & c) | (!b & d)
            0..=19 => (
                _mm_or_si128(_mm_and_si128(b, c), _mm_andnot_si128(b, d)),
                0x5A82_7999u32,
            ),
            20..=39 => (_mm_xor_si128(_mm_xor_si128(b, c), d), 0x6ED9_EBA1),
            40..=59 => (
                _mm_or_si128(
                    _mm_or_si128(_mm_and_si128(b, c), _mm_and_si128(b, d)),
                    _mm_and_si128(c, d),
                ),
                0x8F1B_BCDC,
            ),
            _ => (_mm_xor_si128(_mm_xor_si128(b, c), d), 0xCA62_C1D6),
        };
        let tmp = _mm_add_epi32(
            _mm_add_epi32(rotl4!(a, 5), f),
            _mm_add_epi32(_mm_add_epi32(e, _mm_set1_epi32(k as i32)), wt),
        );
        e = d;
        d = c;
        c = rotl4!(b, 30);
        b = a;
        a = tmp;
    }
    let vars = [a, b, c, d, e];
    for (i, v) in vars.iter().enumerate() {
        let mut lanes = [0u32; 4];
        // SAFETY: shape 2 — unaligned store of one 16-byte vector into a
        // local 4-word array.
        unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), *v) };
        for l in 0..LANES {
            states[l][i] = states[l][i].wrapping_add(lanes[l]);
        }
    }
}

/// SHA-256 over `N` independent streams of 64-byte blocks (equal counts,
/// checked by the safe wrapper) using the SHA extension instructions: the
/// canonical Intel flow, with every step applied to each stream in turn so
/// the streams' `sha256rnds2` dependency chains overlap.
///
/// # Safety
/// Requires the `sha`, `ssse3` and `sse4.1` CPU features.
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn sha256_compress_ni<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
    // Byte shuffle turning 16 little-endian-loaded bytes into four
    // big-endian u32 message words (per 128-bit lane quarter).
    let mask = _mm_set_epi64x(
        0x0c0d_0e0f_0809_0a0b_u64 as i64,
        0x0405_0607_0001_0203_u64 as i64,
    );

    let mut abef = [_mm_setzero_si128(); N];
    let mut cdgh = [_mm_setzero_si128(); N];
    for s in 0..N {
        // SAFETY: shape 2 — unaligned loads of the 8-word state array.
        let dcba = unsafe { _mm_loadu_si128(states[s].as_ptr().cast()) };
        let hgfe = unsafe { _mm_loadu_si128(states[s].as_ptr().add(4).cast()) };
        // Repack [a,b,c,d]/[e,f,g,h] into the ABEF/CDGH register layout the
        // sha256rnds2 instruction expects.
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        abef[s] = _mm_alignr_epi8(cdab, efgh, 8);
        cdgh[s] = _mm_blend_epi16(efgh, cdab, 0xF0);
    }

    for b in 0..blocks[0].len() / 64 {
        let abef_save = abef;
        let cdgh_save = cdgh;

        let mut ws = [[_mm_setzero_si128(); 4]; N];
        for s in 0..N {
            let p: *const __m128i = blocks[s][b * 64..(b + 1) * 64].as_ptr().cast();
            // SAFETY: shape 2 — four unaligned 16-byte loads inside the
            // bounds-checked 64-byte block slice.
            ws[s] = unsafe {
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(p), mask),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask),
                ]
            };
        }

        // Four rounds of every stream. `$g` is a literal, so the schedule
        // window indices are constants and `ws` lives in registers; a
        // `for g in 0..16` loop is not unrolled and indexes `ws` in memory.
        macro_rules! rounds4 {
            ($($g:literal)*) => {$(
                // SAFETY: shape 2 — in-bounds unaligned load of four round
                // constants from the static K table.
                let k = unsafe { _mm_loadu_si128(crate::sha256::K.as_ptr().add(4 * $g).cast()) };
                for s in 0..N {
                    let ws = &mut ws[s];
                    if $g >= 4 {
                        // w[t] schedule for the next four rounds:
                        // sha256msg2(sha256msg1(w0,w1) + alignr(w3,w2,4), w3).
                        let t1 = _mm_sha256msg1_epu32(ws[$g % 4], ws[($g + 1) % 4]);
                        let t2 = _mm_alignr_epi8(ws[($g + 3) % 4], ws[($g + 2) % 4], 4);
                        ws[$g % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(t1, t2), ws[($g + 3) % 4]);
                    }
                    let wk = _mm_add_epi32(ws[$g % 4], k);
                    cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], wk);
                    let wk_hi = _mm_shuffle_epi32(wk, 0x0E);
                    abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s], wk_hi);
                }
            )*};
        }
        rounds4!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);

        for s in 0..N {
            abef[s] = _mm_add_epi32(abef[s], abef_save[s]);
            cdgh[s] = _mm_add_epi32(cdgh[s], cdgh_save[s]);
        }
    }

    for s in 0..N {
        // Unpack ABEF/CDGH back to [a,b,c,d] / [e,f,g,h].
        let feba = _mm_shuffle_epi32(abef[s], 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh[s], 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: shape 2 — unaligned stores back into the 8-word state
        // array.
        unsafe {
            _mm_storeu_si128(states[s].as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(states[s].as_mut_ptr().add(4).cast(), hgfe);
        }
    }
}

/// SHA-1 over `N` independent streams of 64-byte blocks; same shape and
/// contract as [`sha256_compress_ni`], interleaving `sha1rnds4`.
///
/// # Safety
/// Requires the `sha`, `ssse3` and `sse4.1` CPU features.
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn sha1_compress_ni<const N: usize>(states: &mut [[u32; 5]; N], blocks: [&[u8]; N]) {
    // Reverses bytes within each dword AND reverses dword order, so lane 3
    // holds w0 — the layout sha1rnds4/sha1nexte expect.
    let mask = _mm_set_epi64x(
        0x0001_0203_0405_0607_u64 as i64,
        0x0809_0a0b_0c0d_0e0f_u64 as i64,
    );

    let mut abcd = [_mm_setzero_si128(); N];
    let mut e = [_mm_setzero_si128(); N];
    for s in 0..N {
        // SAFETY: shape 2 — unaligned load of state[0..4].
        abcd[s] = unsafe { _mm_shuffle_epi32(_mm_loadu_si128(states[s].as_ptr().cast()), 0x1B) };
        e[s] = _mm_set_epi32(states[s][4] as i32, 0, 0, 0);
    }

    for b in 0..blocks[0].len() / 64 {
        let abcd_save = abcd;
        let e_save = e;

        let mut ws = [[_mm_setzero_si128(); 4]; N];
        for s in 0..N {
            let p: *const __m128i = blocks[s][b * 64..(b + 1) * 64].as_ptr().cast();
            // SAFETY: shape 2 — four unaligned 16-byte loads inside the
            // bounds-checked 64-byte block slice.
            ws[s] = unsafe {
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(p), mask),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask),
                ]
            };
        }

        // prev_abcd after iteration g = the ABCD value entering group g;
        // sha1nexte derives group g+1's E term from it (rol30 of its `a`).
        let mut prev_abcd = abcd;
        // Four rounds of every stream; `$g` is a literal for the reason
        // given in `sha256_compress_ni`, and it also makes the round
        // function selector `$g / 5` the immediate `sha1rnds4` needs.
        macro_rules! rounds4 {
            ($($g:literal)*) => {$(
                for s in 0..N {
                    let ws = &mut ws[s];
                    if $g >= 4 {
                        // w schedule: sha1msg2(sha1msg1(w0,w1) ^ w2, w3).
                        let t = _mm_xor_si128(
                            _mm_sha1msg1_epu32(ws[$g % 4], ws[($g + 1) % 4]),
                            ws[($g + 2) % 4],
                        );
                        ws[$g % 4] = _mm_sha1msg2_epu32(t, ws[($g + 3) % 4]);
                    }
                    let w = ws[$g % 4];
                    let e_in = if $g == 0 {
                        _mm_add_epi32(e[s], w)
                    } else {
                        _mm_sha1nexte_epu32(prev_abcd[s], w)
                    };
                    prev_abcd[s] = abcd[s];
                    abcd[s] = _mm_sha1rnds4_epu32::<{ $g / 5 }>(abcd[s], e_in);
                }
            )*};
        }
        rounds4!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);

        // Davies–Meyer feed-forward: e += rol30(a from rounds 76..79's
        // input), abcd += saved state.
        for s in 0..N {
            e[s] = _mm_sha1nexte_epu32(prev_abcd[s], e_save[s]);
            abcd[s] = _mm_add_epi32(abcd[s], abcd_save[s]);
        }
    }

    for s in 0..N {
        let dcba = _mm_shuffle_epi32(abcd[s], 0x1B);
        // SAFETY: shape 2 — unaligned store back into state[0..4].
        unsafe { _mm_storeu_si128(states[s].as_mut_ptr().cast(), dcba) };
        states[s][4] = _mm_extract_epi32(e[s], 3) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_ni_matches_scalar() {
        if !sha_ni_detected() {
            eprintln!("skipping: no SHA-NI on this CPU");
            return;
        }
        for nblocks in 1..=5usize {
            let data: Vec<u8> = (0..nblocks * 64).map(|i| (i * 13 % 251) as u8).collect();
            let mut ni_state = crate::sha256::INIT;
            sha256_compress(std::array::from_mut(&mut ni_state), [&data]);
            let mut sc_state = crate::sha256::INIT;
            for block in data.chunks_exact(64) {
                // Allowlist: chunks_exact(64) yields exactly 64-byte slices.
                let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
                crate::sha256::compress_block(&mut sc_state, block);
            }
            assert_eq!(ni_state, sc_state, "nblocks={nblocks}");
        }
    }

    #[test]
    fn sha1_ni_matches_scalar() {
        if !sha_ni_detected() {
            eprintln!("skipping: no SHA-NI on this CPU");
            return;
        }
        for nblocks in 1..=5usize {
            let data: Vec<u8> = (0..nblocks * 64).map(|i| (i * 29 % 241) as u8).collect();
            let mut ni_state = crate::sha1::INIT;
            sha1_compress(std::array::from_mut(&mut ni_state), [&data]);
            let mut sc_state = crate::sha1::INIT;
            for block in data.chunks_exact(64) {
                // Allowlist: chunks_exact(64) yields exactly 64-byte slices.
                let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
                crate::sha1::compress_block(&mut sc_state, block);
            }
            assert_eq!(ni_state, sc_state, "nblocks={nblocks}");
        }
    }

    #[test]
    fn two_stream_kernels_match_scalar_per_stream() {
        use rand::{RngCore, SeedableRng};
        if !sha_ni_detected() {
            eprintln!("skipping: no SHA-NI on this CPU");
            return;
        }
        // Random states (mid-message chaining values, not just the IV) and
        // random blocks; each stream must come out as if hashed alone, and
        // the one-stream kernel (N = 1) must agree with both.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x2571);
        for nblocks in [1usize, 2, 5] {
            for _ in 0..64 {
                let mut data = [vec![0u8; nblocks * 64], vec![0u8; nblocks * 64]];
                rng.fill_bytes(&mut data[0]);
                rng.fill_bytes(&mut data[1]);
                let blocks = [&data[0][..], &data[1][..]];

                let mut ni1: [[u32; 5]; 2] =
                    core::array::from_fn(|_| core::array::from_fn(|_| rng.next_u32()));
                let mut sc1 = ni1;
                let mut ni256: [[u32; 8]; 2] =
                    core::array::from_fn(|_| core::array::from_fn(|_| rng.next_u32()));
                let mut sc256 = ni256;
                let one1: [[u32; 5]; 2] = core::array::from_fn(|s| {
                    let mut st = [ni1[s]];
                    sha1_compress(&mut st, [blocks[s]]);
                    st[0]
                });
                let one256: [[u32; 8]; 2] = core::array::from_fn(|s| {
                    let mut st = [ni256[s]];
                    sha256_compress(&mut st, [blocks[s]]);
                    st[0]
                });
                sha1_compress(&mut ni1, blocks);
                sha256_compress(&mut ni256, blocks);
                for s in 0..2 {
                    for block in data[s].chunks_exact(64) {
                        // Allowlist: chunks_exact(64) yields exactly 64-byte slices.
                        let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
                        crate::sha1::compress_block(&mut sc1[s], block);
                        crate::sha256::compress_block(&mut sc256[s], block);
                    }
                }
                assert_eq!(ni1, sc1, "sha1 nblocks={nblocks}");
                assert_eq!(ni256, sc256, "sha256 nblocks={nblocks}");
                assert_eq!(one1, sc1, "sha1 N=1 nblocks={nblocks}");
                assert_eq!(one256, sc256, "sha256 N=1 nblocks={nblocks}");
            }
        }
    }

    #[test]
    fn fips_vectors_through_ni_backend() {
        if !sha_ni_detected() {
            eprintln!("skipping: no SHA-NI on this CPU");
            return;
        }
        // "abc" one-block vectors end-to-end through the padded block path.
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[56..].copy_from_slice(&(24u64).to_be_bytes());

        let mut state = crate::sha256::INIT;
        sha256_compress(std::array::from_mut(&mut state), [&block]);
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        assert_eq!(
            hex(&out),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );

        let mut state = crate::sha1::INIT;
        sha1_compress(std::array::from_mut(&mut state), [&block]);
        let mut out = [0u8; 20];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        assert_eq!(hex(&out), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }
}
