//! Runtime-dispatched digest backends and batch hashing APIs.
//!
//! ALPHA's steady-state cost is almost entirely hash compressions (§5 of the
//! paper), so this module lets the crate pick the fastest implementation the
//! host CPU offers — once, at startup — and exposes *batch* entry points for
//! the call sites that hash many independent short inputs (HMAC
//! pre-signatures, Merkle levels, relay S2 verification). Hash chains have
//! their own fixed-block entry, [`hash_padded_blocks`], driven by the one
//! walker in [`crate::chain`].
//!
//! Three tiers exist:
//!
//! - [`BackendKind::ShaNi`] — x86_64 SHA extension instructions for SHA-1 and
//!   SHA-256, selected only when `is_x86_feature_detected!` proves support.
//!   One kernel per algorithm runs one stream or two interleaved ones (a
//!   chain pair, two Merkle siblings), the second filling the first's
//!   instruction latency. All `unsafe` lives in the feature-gated `shani`
//!   module.
//! - [`BackendKind::Lanes4`] — a portable 4-lane interleaved scalar
//!   implementation ([`crate::multilane`]): four independent messages walk
//!   the compression function in lockstep over `[u32; 4]` words, which the
//!   compiler autovectorizes. Only batch calls benefit; single-stream hashing
//!   falls through to scalar code.
//! - [`BackendKind::Scalar`] — the original from-scratch code, the universal
//!   fallback and the reference every other backend must match bit for bit.
//!
//! Selection order is SHA-NI > 4-lane > scalar, overridable for testing via
//! the `ALPHA_DIGEST_BACKEND` environment variable (`scalar`, `lanes4`,
//! `sha-ni`, or `auto`). An unsupported or unknown override logs a warning to
//! stderr and falls back to auto-detection. MMO/AES is untouched by backend
//! selection: it is a 16-byte-block cipher construction with no wide-lane
//! variant here, and always runs the scalar path.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::{counting, Algorithm, Digest};

/// Identifies one of the compiled-in digest backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Portable scalar code; always available, the correctness reference.
    Scalar,
    /// Portable 4-lane interleaved scalar implementation; always available,
    /// accelerates batch calls only.
    Lanes4,
    /// x86_64 SHA-NI intrinsics; available only when the CPU advertises the
    /// `sha` feature (plus SSSE3/SSE4.1 for the byte shuffles).
    ShaNi,
}

impl BackendKind {
    /// Stable lowercase name, as accepted by `ALPHA_DIGEST_BACKEND` and
    /// reported in `engine stats` / BENCH_*.json outputs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Lanes4 => "lanes4",
            BackendKind::ShaNi => "sha-ni",
        }
    }

    /// Parse a backend name (the inverse of [`BackendKind::name`]).
    #[must_use]
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name {
            "scalar" => Some(BackendKind::Scalar),
            "lanes4" => Some(BackendKind::Lanes4),
            "sha-ni" | "shani" => Some(BackendKind::ShaNi),
            _ => None,
        }
    }

    /// Whether this backend can run on the current CPU.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            BackendKind::Scalar | BackendKind::Lanes4 => true,
            BackendKind::ShaNi => sha_ni_detected(),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    crate::shani::sha_ni_detected()
}

#[cfg(not(target_arch = "x86_64"))]
fn sha_ni_detected() -> bool {
    false
}

/// Backends usable on this CPU, in increasing preference order.
#[must_use]
pub fn available() -> Vec<BackendKind> {
    let mut v = vec![BackendKind::Scalar, BackendKind::Lanes4];
    if BackendKind::ShaNi.is_supported() {
        v.push(BackendKind::ShaNi);
    }
    v
}

/// What auto-detection would pick on this CPU (ignoring the env override).
#[must_use]
pub fn detect() -> BackendKind {
    if sha_ni_detected() {
        BackendKind::ShaNi
    } else {
        BackendKind::Lanes4
    }
}

// 0 = not yet resolved; otherwise BackendKind discriminant + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn code(kind: BackendKind) -> u8 {
    match kind {
        BackendKind::Scalar => 1,
        BackendKind::Lanes4 => 2,
        BackendKind::ShaNi => 3,
    }
}

/// The backend in effect for all hashing in this process.
///
/// Resolved once on first use: `ALPHA_DIGEST_BACKEND` if set and valid,
/// otherwise [`detect`]. Subsequent calls are a single relaxed atomic load.
#[must_use]
pub fn active() -> BackendKind {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => BackendKind::Scalar,
        2 => BackendKind::Lanes4,
        3 => BackendKind::ShaNi,
        _ => {
            let kind = resolve();
            ACTIVE.store(code(kind), Ordering::Relaxed);
            kind
        }
    }
}

fn resolve() -> BackendKind {
    match std::env::var("ALPHA_DIGEST_BACKEND") {
        Ok(raw) => {
            let name = raw.trim().to_ascii_lowercase();
            if name.is_empty() || name == "auto" {
                return detect();
            }
            match BackendKind::parse(&name) {
                Some(kind) if kind.is_supported() => kind,
                Some(kind) => {
                    eprintln!(
                        "alpha-crypto: ALPHA_DIGEST_BACKEND={} not supported on this CPU; \
                         falling back to {}",
                        kind.name(),
                        detect().name()
                    );
                    detect()
                }
                None => {
                    eprintln!(
                        "alpha-crypto: unknown ALPHA_DIGEST_BACKEND={raw:?} \
                         (expected scalar|lanes4|sha-ni|auto); falling back to {}",
                        detect().name()
                    );
                    detect()
                }
            }
        }
        Err(_) => detect(),
    }
}

/// Error returned by [`force`] for a backend the CPU cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedBackend(
    /// The backend that was requested.
    pub BackendKind,
);

impl std::fmt::Display for UnsupportedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "digest backend {} not supported on this CPU", self.0)
    }
}

impl std::error::Error for UnsupportedBackend {}

/// Force the process-wide backend. Intended for benches and tests that
/// compare tiers in one process; production code should rely on [`active`]'s
/// one-time detection. All backends produce identical digests, so switching
/// mid-flight is safe (it only changes which implementation runs).
pub fn force(kind: BackendKind) -> Result<(), UnsupportedBackend> {
    if !kind.is_supported() {
        return Err(UnsupportedBackend(kind));
    }
    ACTIVE.store(code(kind), Ordering::Relaxed);
    Ok(())
}

// ---------------------------------------------------------------------------
// Block-compression dispatch (used by the streaming Sha1/Sha256 contexts,
// the batch paths below and the chain walker).
// ---------------------------------------------------------------------------

/// Compress `blocks` (length a multiple of 64) into `state` with the active
/// backend.
pub(crate) fn sha1_compress(state: &mut [u32; 5], blocks: &[u8]) {
    sha1_compress_with(active(), std::array::from_mut(state), [blocks]);
}

/// Compress `blocks` (length a multiple of 64) into `state` with the active
/// backend.
pub(crate) fn sha256_compress(state: &mut [u32; 8], blocks: &[u8]) {
    sha256_compress_with(active(), std::array::from_mut(state), [blocks]);
}

/// Compress `N` independent streams — `blocks[s]` (equal lengths, a multiple
/// of 64) into `states[s]`. SHA-NI interleaves the streams in one kernel;
/// the portable tiers run them one after another.
pub(crate) fn sha1_compress_with<const N: usize>(
    kind: BackendKind,
    states: &mut [[u32; 5]; N],
    blocks: [&[u8]; N],
) {
    #[cfg(target_arch = "x86_64")]
    if kind == BackendKind::ShaNi {
        crate::shani::sha1_compress(states, blocks);
        return;
    }
    let _ = kind;
    for (state, blocks) in states.iter_mut().zip(blocks) {
        debug_assert_eq!(blocks.len() % 64, 0);
        for block in blocks.chunks_exact(64) {
            // Allowlist: chunks_exact(64) yields exactly 64-byte slices.
            let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
            crate::sha1::compress_block(state, block);
        }
    }
}

/// SHA-256 variant of [`sha1_compress_with`].
pub(crate) fn sha256_compress_with<const N: usize>(
    kind: BackendKind,
    states: &mut [[u32; 8]; N],
    blocks: [&[u8]; N],
) {
    #[cfg(target_arch = "x86_64")]
    if kind == BackendKind::ShaNi {
        crate::shani::sha256_compress(states, blocks);
        return;
    }
    let _ = kind;
    for (state, blocks) in states.iter_mut().zip(blocks) {
        debug_assert_eq!(blocks.len() % 64, 0);
        for block in blocks.chunks_exact(64) {
            // Allowlist: chunks_exact(64) yields exactly 64-byte slices.
            let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
            crate::sha256::compress_block(state, block);
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-part inputs: the shared "logical message" view for batch hashing.
// ---------------------------------------------------------------------------

/// Maximum number of byte-string parts one batched input may concatenate.
/// Everything ALPHA hashes is a short concatenation: chain steps are
/// `tag | prev` (2), tree nodes `left | right` (2), keyed roots
/// `key | b0 | b1` (3), HMAC passes `pad_key | seq | msg` (3).
pub(crate) const MAX_PARTS: usize = 4;

/// A borrowed logical message: the concatenation of up to [`MAX_PARTS`]
/// byte strings, with Merkle–Damgård block/padding production so lane
/// implementations can pull padded 64-byte blocks without allocating.
#[derive(Clone, Copy)]
pub(crate) struct PartsRef<'a> {
    parts: [&'a [u8]; MAX_PARTS],
    n: usize,
    len: usize,
}

impl<'a> PartsRef<'a> {
    pub(crate) fn new(parts: &[&'a [u8]]) -> PartsRef<'a> {
        assert!(parts.len() <= MAX_PARTS, "too many message parts");
        let mut p: [&[u8]; MAX_PARTS] = [&[]; MAX_PARTS];
        p[..parts.len()].copy_from_slice(parts);
        PartsRef {
            parts: p,
            n: parts.len(),
            len: parts.iter().map(|s| s.len()).sum(),
        }
    }

    pub(crate) fn one(data: &'a [u8]) -> PartsRef<'a> {
        PartsRef::new(&[data])
    }

    fn read_at(&self, mut offset: usize, out: &mut [u8]) {
        let mut written = 0;
        for part in &self.parts[..self.n] {
            if written == out.len() {
                break;
            }
            if offset >= part.len() {
                offset -= part.len();
                continue;
            }
            let take = (part.len() - offset).min(out.len() - written);
            out[written..written + take].copy_from_slice(&part[offset..offset + take]);
            written += take;
            offset = 0;
        }
        debug_assert_eq!(written, out.len());
    }
}

/// A message a batch hasher pulls its padded 64-byte blocks from.
pub(crate) trait Blocks64 {
    /// Message length in bytes, padding excluded.
    fn total_len(&self) -> usize;
    /// Number of 64-byte blocks, padding included (data, `0x80`, the
    /// 64-bit length).
    fn num_blocks64(&self) -> usize {
        (self.total_len() + 9).div_ceil(64)
    }
    /// Leading whole blocks that lie in memory as they are to be
    /// compressed, for the compressor to take in place (possibly none).
    fn ready_blocks(&self) -> &[u8];
    /// Write block `idx` (of [`Blocks64::num_blocks64`]) into `out`.
    fn fill_block64(&self, idx: usize, out: &mut [u8; 64]);
    /// Feed the message bytes to `hasher`, for MMO, which has no 64-byte
    /// block path.
    fn feed(&self, hasher: &mut crate::Hasher);
}

impl Blocks64 for PartsRef<'_> {
    fn total_len(&self) -> usize {
        self.len
    }

    /// A single-part message's whole blocks.
    fn ready_blocks(&self) -> &[u8] {
        if self.n == 1 {
            &self.parts[0][..self.len / 64 * 64]
        } else {
            &[]
        }
    }

    /// Materialize padded block `idx` (of [`Blocks64::num_blocks64`]).
    fn fill_block64(&self, idx: usize, out: &mut [u8; 64]) {
        out.fill(0);
        let start = idx * 64;
        if start < self.len {
            let n = (self.len - start).min(64);
            self.read_at(start, &mut out[..n]);
        }
        if (start..start + 64).contains(&self.len) {
            out[self.len - start] = 0x80;
        }
        if idx + 1 == self.num_blocks64() {
            out[56..].copy_from_slice(&((self.len as u64) * 8).to_be_bytes());
        }
    }

    fn feed(&self, hasher: &mut crate::Hasher) {
        for part in &self.parts[..self.n] {
            hasher.update(part);
        }
    }
}

/// A short message laid out with its Merkle–Damgård padding already in
/// place: one or two 64-byte blocks the compressor takes as they are,
/// with no per-block assembly. Every Merkle node input (`left | right`,
/// `key | left | right`) is one; two inputs are byte-equal exactly when
/// their [`Padded::input`]s are.
#[derive(Clone, Copy)]
pub(crate) struct Padded {
    bytes: [u8; 128],
    len: usize,
}

impl Padded {
    /// Longest message that fits two blocks with its padding.
    pub(crate) const MAX_LEN: usize = 128 - 9;

    /// A slot to [`Padded::fill`] later.
    pub(crate) const EMPTY: Padded = Padded {
        bytes: [0; 128],
        len: 0,
    };

    /// The concatenation of `parts`, padded.
    ///
    /// # Panics
    /// Panics if the parts are longer than [`Padded::MAX_LEN`] in all.
    pub(crate) fn new(parts: &[&[u8]]) -> Padded {
        let mut padded = Padded::EMPTY;
        padded.fill(parts);
        padded
    }

    /// Make this the concatenation of `parts`, padded, in place.
    ///
    /// # Panics
    /// As [`Padded::new`].
    pub(crate) fn fill(&mut self, parts: &[&[u8]]) {
        let total: usize = parts.iter().map(|part| part.len()).sum();
        assert!(total <= Padded::MAX_LEN, "message too long to pre-pad");
        let mut len = 0;
        for part in parts {
            self.bytes[len..len + part.len()].copy_from_slice(part);
            len += part.len();
        }
        let end = (len + 9).div_ceil(64) * 64;
        self.bytes[len..end].fill(0);
        self.bytes[len] = 0x80;
        self.bytes[end - 8..end].copy_from_slice(&((len as u64) * 8).to_be_bytes());
        self.len = len;
    }

    /// The message bytes, without the padding.
    pub(crate) fn input(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl Blocks64 for Padded {
    fn total_len(&self) -> usize {
        self.len
    }

    /// Every block, padding included.
    fn ready_blocks(&self) -> &[u8] {
        &self.bytes[..self.num_blocks64() * 64]
    }

    fn fill_block64(&self, idx: usize, out: &mut [u8; 64]) {
        out.copy_from_slice(&self.bytes[idx * 64..(idx + 1) * 64]);
    }

    fn feed(&self, hasher: &mut crate::Hasher) {
        hasher.update(self.input());
    }
}

// ---------------------------------------------------------------------------
// Batch digest / MAC APIs.
// ---------------------------------------------------------------------------

/// Hash many independent inputs with the active backend.
///
/// Byte-identical to calling [`Algorithm::hash`] per input (and records the
/// same per-invocation instrumentation in [`crate::counting`]), but hands
/// the backend up to 16 inputs per call: sixteen per compression sweep on
/// the AVX-512 SHA-1 kernel, four on the lanes4 tier, two interleaved on
/// SHA-NI (see [`hash_lanes_with`]'s dispatch).
///
/// # Panics
/// Panics if `inputs.len() != out.len()`.
pub fn digest_batch(alg: Algorithm, inputs: &[&[u8]], out: &mut [Digest]) {
    digest_batch_using(active(), alg, inputs, out);
}

/// [`digest_batch`] with an explicit backend; for benches and equivalence
/// tests that compare tiers without touching process-global state.
///
/// # Panics
/// Panics if `inputs.len() != out.len()` or `kind` is unsupported here.
pub fn digest_batch_using(kind: BackendKind, alg: Algorithm, inputs: &[&[u8]], out: &mut [Digest]) {
    assert_eq!(inputs.len(), out.len(), "digest_batch length mismatch");
    assert!(kind.is_supported(), "backend {kind} not supported");
    match alg {
        Algorithm::MmoAes => {
            for (input, slot) in inputs.iter().zip(out.iter_mut()) {
                *slot = alg.hash(input);
            }
        }
        Algorithm::Sha1 | Algorithm::Sha256 => {
            // As in `mac_parts_batch_using`: a few inputs do not set up
            // sixteen jobs.
            if inputs.len() <= LANES {
                digest_chunks::<LANES>(kind, alg, inputs, out);
            } else {
                digest_chunks::<BATCH>(kind, alg, inputs, out);
            }
        }
    }
}

/// [`digest_batch_using`]'s SHA path, `N` inputs per chunk.
fn digest_chunks<const N: usize>(
    kind: BackendKind,
    alg: Algorithm,
    inputs: &[&[u8]],
    out: &mut [Digest],
) {
    for (inputs, out) in inputs.chunks(N).zip(out.chunks_mut(N)) {
        let mut jobs = [PartsRef::new(&[]); N];
        for (job, input) in jobs.iter_mut().zip(inputs) {
            *job = PartsRef::one(input);
        }
        hash_lanes_with(kind, alg, &jobs[..inputs.len()], out);
    }
}

/// Lane width of the portable 4-lane backend.
pub(crate) const LANES: usize = 4;

/// Jobs the batch callers (`digest_batch`, HMAC batches, Merkle levels,
/// AMT leaves) hand [`hash_lanes_with`] per call: one sweep of the
/// 16-lane SHA-1 kernel.
pub(crate) const BATCH: usize = 16;

/// Fewest SHA-1 jobs that take the 16-lane kernel. Its sweep costs the
/// same however many of its lanes are live (12.5 ns per block for all
/// 16 on the reference host, against 36–44 ns per block on SHA-NI), so
/// below this count a batch is cheaper on SHA-NI. `digest_throughput`
/// measures the crossover (`wide_crossover` in `BENCH_digest.json`): 6
/// jobs of one block, 5 of 17.
#[cfg(target_arch = "x86_64")]
const X16_MIN_JOBS: usize = 6;

/// Hash independent messages — multi-part ([`PartsRef`]) or pre-padded
/// ([`Padded`]) — honoring `kind`: byte-identical to [`Algorithm::hash`]
/// of each message, one [`crate::counting`] invocation each. A run of at
/// least `X16_MIN_JOBS` SHA-1 messages on any tier but scalar, on a
/// CPU with AVX-512F/BW, goes to the 16-lane kernel, sixteen at a time
/// whatever their block counts. Otherwise the lanes4 tier sweeps four
/// messages at a time, and the others run neighbours of equal block count
/// as two streams (interleaved by SHA-NI), the rest alone. MMO, which has
/// no 64-byte block, hashes each message in turn. Every batch digest,
/// HMAC pass, Merkle node and AMT leaf is hashed here.
///
/// # Panics
/// Panics if `jobs` and `out` differ in length.
pub(crate) fn hash_lanes_with<J: Blocks64>(
    kind: BackendKind,
    alg: Algorithm,
    jobs: &[J],
    out: &mut [Digest],
) {
    assert_eq!(jobs.len(), out.len(), "hash_lanes_with length mismatch");
    if alg == Algorithm::MmoAes {
        for (job, slot) in jobs.iter().zip(out) {
            let mut h = crate::Hasher::new(alg);
            job.feed(&mut h);
            *slot = h.finish();
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if alg == Algorithm::Sha1
        && kind != BackendKind::Scalar
        && jobs.len() >= X16_MIN_JOBS
        && crate::shani::x16_detected()
    {
        // Sixteen at a time; a last chunk too short for the kernel goes
        // the narrow way.
        for (jobs, out) in jobs.chunks(BATCH).zip(out.chunks_mut(BATCH)) {
            if jobs.len() < X16_MIN_JOBS {
                hash_narrow(kind, alg, jobs, out);
                continue;
            }
            sha1_x16(jobs, out);
            for job in jobs {
                counting::record(alg, job.total_len());
            }
        }
        return;
    }
    hash_narrow(kind, alg, jobs, out);
}

/// [`hash_lanes_with`] without the 16-lane kernel: four messages at a
/// time on the lanes4 sweep, or neighbours as SHA-NI / scalar streams.
fn hash_narrow<J: Blocks64>(kind: BackendKind, alg: Algorithm, jobs: &[J], out: &mut [Digest]) {
    for (jobs, out) in jobs.chunks(LANES).zip(out.chunks_mut(LANES)) {
        if kind == BackendKind::Lanes4 && jobs.len() > 1 {
            // Lane-parallel only pays off with >1 message on the portable tier.
            match alg {
                Algorithm::Sha1 => crate::multilane::sha1_lanes(jobs, out),
                _ => crate::multilane::sha256_lanes(jobs, out),
            }
        } else {
            // Neighbours with equal block counts (Merkle levels, AMT leaves,
            // HMAC passes) go as two streams, which SHA-NI interleaves.
            let mut i = 0;
            while i < jobs.len() {
                if i + 1 < jobs.len() && jobs[i].num_blocks64() == jobs[i + 1].num_blocks64() {
                    hash_streams(kind, alg, &mut out[i..i + 2], |compress| {
                        run_blocks64([&jobs[i], &jobs[i + 1]], compress);
                    });
                    i += 2;
                } else {
                    hash_streams(kind, alg, &mut out[i..=i], |compress| {
                        run_blocks64([&jobs[i]], compress);
                    });
                    i += 1;
                }
            }
        }
        for job in jobs {
            counting::record(alg, job.total_len());
        }
    }
}

/// Up to 16 SHA-1 messages in one pass of the 16-lane kernel, whatever
/// their block counts (no counting): every lane's blocks that lie ready
/// in memory in place, then the rest assembled, [`X16_TAIL`] per lane per
/// kernel call.
#[cfg(target_arch = "x86_64")]
fn sha1_x16<J: Blocks64>(jobs: &[J], out: &mut [Digest]) {
    use crate::shani::{sha1_compress_x16, X16};
    debug_assert!(jobs.len() <= X16 && jobs.len() == out.len());
    let mut state = crate::sha1::INIT.map(|word| [word; X16]);
    let mut ready: [&[u8]; X16] = [&[]; X16];
    let mut done = [0usize; X16];
    for ((run, done), job) in ready.iter_mut().zip(&mut done).zip(jobs) {
        *run = job.ready_blocks();
        *done = run.len() / 64;
    }
    sha1_compress_x16(&mut state, ready);
    let mut tail = [[[0u8; 64]; X16_TAIL]; X16];
    loop {
        let mut taken = [0usize; X16];
        for (l, job) in jobs.iter().enumerate() {
            taken[l] = (job.num_blocks64() - done[l]).min(X16_TAIL);
            for (k, block) in tail[l][..taken[l]].iter_mut().enumerate() {
                job.fill_block64(done[l] + k, block);
            }
            done[l] += taken[l];
        }
        if taken == [0; X16] {
            break;
        }
        sha1_compress_x16(
            &mut state,
            core::array::from_fn(|l| &tail[l].as_flattened()[..taken[l] * 64]),
        );
    }
    for (l, slot) in out.iter_mut().enumerate() {
        let words: [u32; 5] = core::array::from_fn(|i| state[i][l]);
        *slot = Digest::from_be_words(&words);
    }
}

/// Assembled blocks per lane per 16-lane kernel call: a one-part
/// message's padding fits in one call.
#[cfg(target_arch = "x86_64")]
const X16_TAIL: usize = 2;

/// Hash `N` messages that are each one already-padded 64-byte block (no
/// counting) — the chain walker's step.
pub(crate) fn hash_padded_blocks<const N: usize>(
    kind: BackendKind,
    alg: Algorithm,
    blocks: &[[u8; 64]; N],
    out: &mut [Digest; N],
) {
    hash_streams(kind, alg, out, |compress| {
        compress(blocks.each_ref().map(|b| &b[..]));
    });
}

/// `N` SHA compression streams from the IV to their digests, honoring an
/// explicit backend: `feed` pushes the padded messages through the
/// compressor it is handed, every call carrying one equally long run of
/// 64-byte blocks per stream.
fn hash_streams<const N: usize>(
    kind: BackendKind,
    alg: Algorithm,
    out: &mut [Digest],
    feed: impl FnOnce(&mut dyn FnMut([&[u8]; N])),
) {
    debug_assert_eq!(out.len(), N);
    match alg {
        Algorithm::Sha1 => {
            let mut states = [crate::sha1::INIT; N];
            feed(&mut |blocks| sha1_compress_with(kind, &mut states, blocks));
            for (slot, state) in out.iter_mut().zip(&states) {
                *slot = Digest::from_be_words(state);
            }
        }
        Algorithm::Sha256 => {
            let mut states = [crate::sha256::INIT; N];
            feed(&mut |blocks| sha256_compress_with(kind, &mut states, blocks));
            for (slot, state) in out.iter_mut().zip(&states) {
                *slot = Digest::from_be_words(state);
            }
        }
        Algorithm::MmoAes => unreachable!("MMO has no 64-byte block path"),
    }
}

/// Feed the padded 64-byte blocks of `jobs` (equal block counts) to
/// `compress`, stream `s` of every call carrying `jobs[s]`'s next blocks:
/// the blocks that lie ready in memory in place, then the rest assembled.
fn run_blocks64<J: Blocks64, const N: usize>(jobs: [&J; N], compress: &mut dyn FnMut([&[u8]; N])) {
    let nblocks = jobs[0].num_blocks64();
    debug_assert!(jobs.iter().all(|j| j.num_blocks64() == nblocks));
    let ready = jobs
        .iter()
        .map(|j| j.ready_blocks().len() / 64)
        .min()
        .unwrap_or(0);
    if ready > 0 {
        compress(jobs.map(|j| &j.ready_blocks()[..ready * 64]));
    }
    let mut blocks = [[0u8; 64]; N];
    for next in ready..nblocks {
        for (job, block) in jobs.iter().zip(blocks.iter_mut()) {
            job.fill_block64(next, block);
        }
        compress(blocks.each_ref().map(|b| &b[..]));
    }
}

/// HMAC many multi-part messages in one call (each message a concatenation
/// of up to 3 byte strings, e.g. `seq | payload`), each under its own
/// same-length key.
///
/// Byte-identical to [`crate::hmac::mac_parts`] per `(key, msg)` pair,
/// including [`crate::counting`] instrumentation. Keys must all have the
/// same length (in ALPHA a key is always one chain element); keys no longer
/// than the block length get the batch path, longer keys fall back to
/// scalar HMAC.
///
/// # Panics
/// Panics if `keys`, `msgs` and `out` lengths differ, key lengths differ,
/// or a message has more than 3 parts.
pub fn mac_parts_batch(alg: Algorithm, keys: &[&[u8]], msgs: &[&[&[u8]]], out: &mut [Digest]) {
    mac_parts_batch_using(active(), alg, keys, msgs, out);
}

/// [`mac_parts_batch`] with an explicit backend; for benches and tests.
///
/// # Panics
/// Panics as [`mac_parts_batch`].
pub fn mac_parts_batch_using(
    kind: BackendKind,
    alg: Algorithm,
    keys: &[&[u8]],
    msgs: &[&[&[u8]]],
    out: &mut [Digest],
) {
    assert_eq!(keys.len(), msgs.len(), "mac_batch length mismatch");
    assert_eq!(keys.len(), out.len(), "mac_batch length mismatch");
    if keys.is_empty() {
        return;
    }
    let key_len = keys[0].len();
    assert!(
        keys.iter().all(|k| k.len() == key_len),
        "mac_batch requires same-length keys"
    );
    let block = alg.block_len();
    if key_len > block || alg == Algorithm::MmoAes {
        // Long keys need a pre-hash (never happens in ALPHA); MMO has no
        // lane path. Scalar HMAC already counts per-invocation.
        for ((key, msg), slot) in keys.iter().zip(msgs.iter()).zip(out.iter_mut()) {
            *slot = crate::hmac::mac_parts(alg, key, msg);
        }
        return;
    }
    debug_assert_eq!(block, 64);
    // Stack arrays sized to the batch, so a lone MAC (a relay's Base S2)
    // does not set up sixteen lanes' pads and jobs.
    if keys.len() <= LANES {
        mac_chunks::<LANES>(kind, alg, keys, msgs, out);
    } else {
        mac_chunks::<BATCH>(kind, alg, keys, msgs, out);
    }
}

/// [`mac_parts_batch_using`]'s batch path, `N` MACs per chunk.
fn mac_chunks<const N: usize>(
    kind: BackendKind,
    alg: Algorithm,
    keys: &[&[u8]],
    msgs: &[&[&[u8]]],
    out: &mut [Digest],
) {
    for ((keys, msgs), out) in keys.chunks(N).zip(msgs.chunks(N)).zip(out.chunks_mut(N)) {
        let take = keys.len();
        // RFC 2104 inner/outer pad keys, one 64-byte block each per lane.
        let mut ipad = [[0x36u8; 64]; N];
        let mut opad = [[0x5cu8; 64]; N];
        for j in 0..take {
            for (b, k) in keys[j].iter().enumerate() {
                ipad[j][b] ^= k;
                opad[j][b] ^= k;
            }
        }
        // Inner pass: H(ipad_key | msg...).
        let mut inner = [Digest::zero(alg); N];
        let mut jobs = [PartsRef::new(&[]); N];
        for j in 0..take {
            let msg = msgs[j];
            assert!(
                msg.len() < MAX_PARTS,
                "mac_batch message has too many parts"
            );
            let mut parts: [&[u8]; MAX_PARTS] = [&[]; MAX_PARTS];
            parts[0] = &ipad[j];
            parts[1..1 + msg.len()].copy_from_slice(msg);
            jobs[j] = PartsRef::new(&parts[..1 + msg.len()]);
        }
        hash_lanes_with(kind, alg, &jobs[..take], &mut inner[..take]);
        // Outer pass: H(opad_key | inner).
        let mut jobs = [PartsRef::new(&[]); N];
        for j in 0..take {
            jobs[j] = PartsRef::new(&[&opad[j], inner[j].as_bytes()]);
        }
        hash_lanes_with(kind, alg, &jobs[..take], out);
        for _ in 0..take {
            counting::record_mac(2);
        }
    }
}

/// The SHA-1 compression kernels themselves, over caller-chosen chaining
/// states and block runs: for the kernel fuzzer (`tests/kernel_fuzz.rs`)
/// and the digest bench's crossover rows. Not protocol API — every
/// protocol path reaches the kernels through the batch entry points above.
#[doc(hidden)]
pub mod kernels {
    use super::BackendKind;

    /// Lanes of the wide kernel.
    pub const WIDE: usize = super::BATCH;

    /// Whether [`sha1_sha_ni`] runs SHA-NI on this CPU (else scalar).
    #[must_use]
    pub fn sha_ni() -> bool {
        BackendKind::ShaNi.is_supported()
    }

    /// Whether [`sha1_wide`] runs the AVX-512 kernel on this CPU (else
    /// scalar).
    #[must_use]
    pub fn wide() -> bool {
        #[cfg(target_arch = "x86_64")]
        let wide = crate::shani::x16_detected();
        #[cfg(not(target_arch = "x86_64"))]
        let wide = false;
        wide
    }

    /// The scalar reference: `blocks` (a multiple of 64 bytes) into `state`.
    pub fn sha1_scalar(state: &mut [u32; 5], blocks: &[u8]) {
        super::sha1_compress_with(BackendKind::Scalar, std::array::from_mut(state), [blocks]);
    }

    /// `N` streams of equal-length runs through the SHA-NI kernel.
    ///
    /// # Panics
    /// Panics if the runs differ in length.
    pub fn sha1_sha_ni<const N: usize>(states: &mut [[u32; 5]; N], blocks: [&[u8]; N]) {
        super::sha1_compress_with(BackendKind::ShaNi, states, blocks);
    }

    /// 16 runs, of any lengths that are multiples of 64, through the wide
    /// kernel, in its word-major layout: `states[i][l]` is word `i` of
    /// lane `l`'s chaining value. A lane stops at the end of its run.
    ///
    /// # Panics
    /// Panics if a run's length is not a multiple of 64.
    pub fn sha1_wide(states: &mut [[u32; WIDE]; 5], blocks: [&[u8]; WIDE]) {
        #[cfg(target_arch = "x86_64")]
        crate::shani::sha1_compress_x16(states, blocks);
        #[cfg(not(target_arch = "x86_64"))]
        for (l, run) in blocks.iter().enumerate() {
            assert!(run.len() % 64 == 0, "run is not whole blocks");
            let mut lane: [u32; 5] = core::array::from_fn(|i| states[i][l]);
            sha1_scalar(&mut lane, run);
            for (row, word) in states.iter_mut().zip(lane) {
                row[l] = word;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in [BackendKind::Scalar, BackendKind::Lanes4, BackendKind::ShaNi] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("mystery"), None);
    }

    #[test]
    fn available_always_has_scalar_and_lanes() {
        let avail = available();
        assert!(avail.contains(&BackendKind::Scalar));
        assert!(avail.contains(&BackendKind::Lanes4));
    }

    #[test]
    fn parts_ref_blocks_match_streaming() {
        // fill_block64 must produce exactly the padded Merkle–Damgård
        // stream: reassemble blocks and compare against a scalar hash of
        // the concatenation.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 200] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let (a, b) = data.split_at(len / 3);
            let job = PartsRef::new(&[a, b]);
            assert_eq!(job.total_len(), len);
            let mut state = crate::sha256::INIT;
            let mut block = [0u8; 64];
            for idx in 0..job.num_blocks64() {
                job.fill_block64(idx, &mut block);
                crate::sha256::compress_block(&mut state, &block);
            }
            let mut bytes = [0u8; 32];
            for (i, w) in state.iter().enumerate() {
                bytes[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
            }
            assert_eq!(&bytes, &crate::sha256::sha256(&data), "len={len}");
        }
    }

    #[test]
    fn digest_batch_matches_scalar_all_backends() {
        let inputs: Vec<Vec<u8>> = (0..9)
            .map(|i| (0..i * 23).map(|b| (b % 256) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        for alg in Algorithm::ALL {
            let expect: Vec<Digest> = refs.iter().map(|d| alg.hash(d)).collect();
            for kind in available() {
                let mut got = vec![Digest::zero(alg); refs.len()];
                digest_batch_using(kind, alg, &refs, &mut got);
                assert_eq!(got, expect, "alg={alg} backend={kind}");
            }
        }
    }

    #[test]
    fn mac_batch_matches_scalar_all_backends() {
        let keys: Vec<Digest> = (0..7u8).map(|i| Algorithm::Sha1.hash(&[i])).collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let msgs: Vec<Vec<u8>> = (0..7)
            .map(|i| (0..i * 17 + 3).map(|b| (b % 251) as u8).collect())
            .collect();
        let msg_refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        for alg in Algorithm::ALL {
            let expect: Vec<Digest> = key_refs
                .iter()
                .zip(&msg_refs)
                .map(|(k, m)| crate::hmac::mac(alg, k, m))
                .collect();
            for kind in available() {
                let jobs: Vec<[&[u8]; 1]> = msg_refs.iter().map(|m| [*m]).collect();
                let jobs: Vec<&[&[u8]]> = jobs.iter().map(|p| &p[..]).collect();
                let mut got = vec![Digest::zero(alg); keys.len()];
                mac_parts_batch_using(kind, alg, &key_refs, &jobs, &mut got);
                assert_eq!(got, expect, "alg={alg} backend={kind}");
            }
        }
    }

    #[test]
    fn batch_counting_matches_scalar() {
        // The Table 1 harness must see identical op counts from batch and
        // scalar paths.
        let inputs: Vec<&[u8]> = vec![b"one", b"two two", b"three three three", b""];
        counting::reset();
        for d in &inputs {
            let _ = Algorithm::Sha256.hash(d);
        }
        let scalar = counting::snapshot();
        for kind in available() {
            counting::reset();
            let mut out = vec![Digest::zero(Algorithm::Sha256); inputs.len()];
            digest_batch_using(kind, Algorithm::Sha256, &inputs, &mut out);
            let got = counting::snapshot();
            assert_eq!(got.invocations, scalar.invocations, "backend={kind}");
            assert_eq!(got.input_bytes, scalar.input_bytes, "backend={kind}");
        }
    }
}
