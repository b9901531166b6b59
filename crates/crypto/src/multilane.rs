//! Portable 4-lane interleaved SHA-1 / SHA-256.
//!
//! Four independent messages walk the compression function in lockstep: every
//! working variable and message-schedule word becomes a `[u32; 4]` holding
//! one value per lane, and every operation is applied element-wise. The code
//! is plain safe Rust — no intrinsics — written so the element-wise `X4` ops
//! can autovectorize off x86_64 (unmeasured there). On x86_64 the sweeps run
//! the hand-written SSE2 kernels in the `shani` module instead, because LLVM
//! does not vectorize the register-rotating round loops.
//!
//! Lanes that finish early (shorter messages) have their digest extracted at
//! the block where they complete; subsequent sweeps keep updating their state
//! columns, but the garbage is never read. This keeps the hot loop free of
//! per-lane branches.

use crate::backend::{Blocks64, LANES};
use crate::Digest;

/// One u32 per lane, with element-wise wrapping/bitwise arithmetic.
#[derive(Clone, Copy)]
struct X4([u32; 4]);

impl X4 {
    #[inline(always)]
    fn splat(v: u32) -> X4 {
        X4([v; 4])
    }

    #[inline(always)]
    fn add(self, o: X4) -> X4 {
        let a = self.0;
        let b = o.0;
        X4([
            a[0].wrapping_add(b[0]),
            a[1].wrapping_add(b[1]),
            a[2].wrapping_add(b[2]),
            a[3].wrapping_add(b[3]),
        ])
    }

    #[inline(always)]
    fn xor(self, o: X4) -> X4 {
        let a = self.0;
        let b = o.0;
        X4([a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]])
    }

    #[inline(always)]
    fn and(self, o: X4) -> X4 {
        let a = self.0;
        let b = o.0;
        X4([a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]])
    }

    #[inline(always)]
    fn or(self, o: X4) -> X4 {
        let a = self.0;
        let b = o.0;
        X4([a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]])
    }

    #[inline(always)]
    fn not(self) -> X4 {
        let a = self.0;
        X4([!a[0], !a[1], !a[2], !a[3]])
    }

    #[inline(always)]
    fn rotl(self, r: u32) -> X4 {
        let a = self.0;
        X4([
            a[0].rotate_left(r),
            a[1].rotate_left(r),
            a[2].rotate_left(r),
            a[3].rotate_left(r),
        ])
    }

    #[inline(always)]
    fn rotr(self, r: u32) -> X4 {
        let a = self.0;
        X4([
            a[0].rotate_right(r),
            a[1].rotate_right(r),
            a[2].rotate_right(r),
            a[3].rotate_right(r),
        ])
    }

    #[inline(always)]
    fn shr(self, r: u32) -> X4 {
        let a = self.0;
        X4([a[0] >> r, a[1] >> r, a[2] >> r, a[3] >> r])
    }
}

#[inline(always)]
fn load_words(blocks: &[[u8; 64]; LANES], t: usize) -> X4 {
    X4(core::array::from_fn(|l| {
        let b = &blocks[l];
        u32::from_be_bytes([b[4 * t], b[4 * t + 1], b[4 * t + 2], b[4 * t + 3]])
    }))
}

/// One 4-lane SHA-256 compression sweep: lane `l` of `states` absorbs
/// `blocks[l]`. Must match `sha256::compress_block` per lane, bit for bit.
/// On x86_64 production builds the hand-vectorized SSE2 kernel supersedes
/// this, but equivalence tests keep exercising it on every arch.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[inline(always)]
pub(crate) fn sha256_compress4(states: &mut [[u32; 8]; LANES], blocks: &[[u8; 64]; LANES]) {
    let mut w = [X4::splat(0); 64];
    for (t, wt) in w.iter_mut().enumerate().take(16) {
        *wt = load_words(blocks, t);
    }
    for t in 16..64 {
        let s0 = w[t - 15]
            .rotr(7)
            .xor(w[t - 15].rotr(18))
            .xor(w[t - 15].shr(3));
        let s1 = w[t - 2]
            .rotr(17)
            .xor(w[t - 2].rotr(19))
            .xor(w[t - 2].shr(10));
        w[t] = w[t - 16].add(s0).add(w[t - 7]).add(s1);
    }
    let mut a = X4(core::array::from_fn(|l| states[l][0]));
    let mut b = X4(core::array::from_fn(|l| states[l][1]));
    let mut c = X4(core::array::from_fn(|l| states[l][2]));
    let mut d = X4(core::array::from_fn(|l| states[l][3]));
    let mut e = X4(core::array::from_fn(|l| states[l][4]));
    let mut f = X4(core::array::from_fn(|l| states[l][5]));
    let mut g = X4(core::array::from_fn(|l| states[l][6]));
    let mut h = X4(core::array::from_fn(|l| states[l][7]));
    for (t, &wt) in w.iter().enumerate() {
        let s1 = e.rotr(6).xor(e.rotr(11)).xor(e.rotr(25));
        let ch = e.and(f).xor(e.not().and(g));
        let t1 = h
            .add(s1)
            .add(ch)
            .add(X4::splat(crate::sha256::K[t]))
            .add(wt);
        let s0 = a.rotr(2).xor(a.rotr(13)).xor(a.rotr(22));
        let maj = a.and(b).xor(a.and(c)).xor(b.and(c));
        let t2 = s0.add(maj);
        h = g;
        g = f;
        f = e;
        e = d.add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.add(t2);
    }
    for (l, st) in states.iter_mut().enumerate() {
        st[0] = st[0].wrapping_add(a.0[l]);
        st[1] = st[1].wrapping_add(b.0[l]);
        st[2] = st[2].wrapping_add(c.0[l]);
        st[3] = st[3].wrapping_add(d.0[l]);
        st[4] = st[4].wrapping_add(e.0[l]);
        st[5] = st[5].wrapping_add(f.0[l]);
        st[6] = st[6].wrapping_add(g.0[l]);
        st[7] = st[7].wrapping_add(h.0[l]);
    }
}

/// One 4-lane SHA-1 compression sweep; scalar-equivalent per lane. Same
/// fallback role as [`sha256_compress4`].
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[inline(always)]
pub(crate) fn sha1_compress4(states: &mut [[u32; 5]; LANES], blocks: &[[u8; 64]; LANES]) {
    let mut w = [X4::splat(0); 80];
    for (t, wt) in w.iter_mut().enumerate().take(16) {
        *wt = load_words(blocks, t);
    }
    for t in 16..80 {
        w[t] = w[t - 3].xor(w[t - 8]).xor(w[t - 14]).xor(w[t - 16]).rotl(1);
    }
    let mut a = X4(core::array::from_fn(|l| states[l][0]));
    let mut b = X4(core::array::from_fn(|l| states[l][1]));
    let mut c = X4(core::array::from_fn(|l| states[l][2]));
    let mut d = X4(core::array::from_fn(|l| states[l][3]));
    let mut e = X4(core::array::from_fn(|l| states[l][4]));
    for (t, &wt) in w.iter().enumerate() {
        let (f, k) = match t {
            0..=19 => (b.and(c).or(b.not().and(d)), 0x5A82_7999),
            20..=39 => (b.xor(c).xor(d), 0x6ED9_EBA1),
            40..=59 => (b.and(c).or(b.and(d)).or(c.and(d)), 0x8F1B_BCDC),
            _ => (b.xor(c).xor(d), 0xCA62_C1D6),
        };
        let tmp = a.rotl(5).add(f).add(e).add(X4::splat(k)).add(wt);
        e = d;
        d = c;
        c = b.rotl(30);
        b = a;
        a = tmp;
    }
    for (l, st) in states.iter_mut().enumerate() {
        st[0] = st[0].wrapping_add(a.0[l]);
        st[1] = st[1].wrapping_add(b.0[l]);
        st[2] = st[2].wrapping_add(c.0[l]);
        st[3] = st[3].wrapping_add(d.0[l]);
        st[4] = st[4].wrapping_add(e.0[l]);
    }
}

// On x86_64 the sweep uses hand-vectorized (baseline SSE2) kernels from the
// `shani` module — LLVM does not autovectorize the register-rotating round
// loops; everywhere else the portable build is used directly.
#[inline]
fn sweep256(states: &mut [[u32; 8]; LANES], blocks: &[[u8; 64]; LANES]) {
    #[cfg(target_arch = "x86_64")]
    {
        crate::shani::sha256_compress4(states, blocks);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        sha256_compress4(states, blocks);
    }
}

#[inline]
fn sweep1(states: &mut [[u32; 5]; LANES], blocks: &[[u8; 64]; LANES]) {
    #[cfg(target_arch = "x86_64")]
    {
        crate::shani::sha1_compress4(states, blocks);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        sha1_compress4(states, blocks);
    }
}

/// Hash up to four independent padded message streams in lockstep.
/// `jobs.len() == out.len() <= LANES`.
pub(crate) fn sha256_lanes<J: Blocks64>(jobs: &[J], out: &mut [Digest]) {
    debug_assert!(jobs.len() <= LANES && jobs.len() == out.len());
    let mut states = [crate::sha256::INIT; LANES];
    let mut blocks = [[0u8; 64]; LANES];
    let mut nblocks = [0usize; LANES];
    for (l, job) in jobs.iter().enumerate() {
        nblocks[l] = job.num_blocks64();
    }
    let max = nblocks.iter().copied().max().unwrap_or(0);
    for idx in 0..max {
        for (l, job) in jobs.iter().enumerate() {
            if idx < nblocks[l] {
                job.fill_block64(idx, &mut blocks[l]);
            }
        }
        sweep256(&mut states, &blocks);
        for l in 0..jobs.len() {
            if idx + 1 == nblocks[l] {
                out[l] = Digest::from_be_words(&states[l]);
            }
        }
    }
}

/// SHA-1 variant of [`sha256_lanes`].
pub(crate) fn sha1_lanes<J: Blocks64>(jobs: &[J], out: &mut [Digest]) {
    debug_assert!(jobs.len() <= LANES && jobs.len() == out.len());
    let mut states = [crate::sha1::INIT; LANES];
    let mut blocks = [[0u8; 64]; LANES];
    let mut nblocks = [0usize; LANES];
    for (l, job) in jobs.iter().enumerate() {
        nblocks[l] = job.num_blocks64();
    }
    let max = nblocks.iter().copied().max().unwrap_or(0);
    for idx in 0..max {
        for (l, job) in jobs.iter().enumerate() {
            if idx < nblocks[l] {
                job.fill_block64(idx, &mut blocks[l]);
            }
        }
        sweep1(&mut states, &blocks);
        for l in 0..jobs.len() {
            if idx + 1 == nblocks[l] {
                out[l] = Digest::from_be_words(&states[l]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PartsRef;
    use crate::Algorithm;

    #[test]
    fn lanes_match_scalar_uneven_lengths() {
        // Lanes finish at different blocks; each must still equal scalar.
        let msgs: Vec<Vec<u8>> = [0usize, 55, 64, 200]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 % 256) as u8).collect())
            .collect();
        let jobs: Vec<PartsRef<'_>> = msgs.iter().map(|m| PartsRef::one(m)).collect();
        let mut out = vec![Digest::zero(Algorithm::Sha256); 4];
        sha256_lanes(&jobs, &mut out);
        for (m, got) in msgs.iter().zip(&out) {
            assert_eq!(*got, Algorithm::Sha256.hash(m));
        }
        let mut out = vec![Digest::zero(Algorithm::Sha1); 4];
        sha1_lanes(&jobs, &mut out);
        for (m, got) in msgs.iter().zip(&out) {
            assert_eq!(*got, Algorithm::Sha1.hash(m));
        }
    }

    #[test]
    fn portable_compress4_matches_scalar() {
        // The portable sweeps must stay scalar-equivalent on every arch,
        // even where the SSE2 kernels normally take over.
        let blocks: [[u8; 64]; LANES] =
            core::array::from_fn(|l| core::array::from_fn(|i| (l * 64 + i * 7) as u8));
        let mut st256 = [crate::sha256::INIT; LANES];
        sha256_compress4(&mut st256, &blocks);
        let mut st1 = [crate::sha1::INIT; LANES];
        sha1_compress4(&mut st1, &blocks);
        for l in 0..LANES {
            let mut ref256 = crate::sha256::INIT;
            crate::sha256::compress_block(&mut ref256, &blocks[l]);
            assert_eq!(st256[l], ref256, "sha256 lane {l}");
            let mut ref1 = crate::sha1::INIT;
            crate::sha1::compress_block(&mut ref1, &blocks[l]);
            assert_eq!(st1[l], ref1, "sha1 lane {l}");
        }
    }

    #[test]
    fn partial_lane_counts() {
        for n in 1..=4usize {
            let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; i * 37]).collect();
            let jobs: Vec<PartsRef<'_>> = msgs.iter().map(|m| PartsRef::one(m)).collect();
            let mut out = vec![Digest::zero(Algorithm::Sha1); n];
            sha1_lanes(&jobs, &mut out);
            for (m, got) in msgs.iter().zip(&out) {
                assert_eq!(*got, Algorithm::Sha1.hash(m), "lanes={n}");
            }
        }
    }
}
