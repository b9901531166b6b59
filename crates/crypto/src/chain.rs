//! One-way hash chains with the S1/S2 role binding of §3.2.1.
//!
//! A chain is built by iterating a hash function over a random seed:
//! `h_1 = H(s)`, `h_2 = H(h_1)`, …, up to the *anchor* `h_n`, and elements
//! are then *disclosed in reverse order of creation* (anchor first). A
//! receiver that knows `h_i` can authenticate a disclosed `h_{i-1}` by
//! recomputing one hash — and can catch up over lost disclosures by hashing
//! forward several steps.
//!
//! ALPHA refines this with **role binding** (§3.2.1): elements are created as
//!
//! ```text
//! h_i = H(tag_1 | h_{i-1})   for odd  i
//! h_i = H(tag_2 | h_{i-1})   for even i
//! ```
//!
//! making S1-authentication elements (odd positions) distinguishable from
//! MAC-key elements (even positions). Without this, an attacker who
//! intercepts an S2 packet and the following S1 could recombine their
//! elements into a fresh-looking S1 with a seemingly valid pre-signature
//! (the *reformatting attack*); with it, a chain element can only ever be
//! accepted in the role its position encodes.
//!
//! A signature exchange consumes a descending *pair* of elements: the odd
//! element authenticates the S1 packet and the even element below it keys
//! the MAC and is disclosed in the S2 packet. Acknowledgment chains use the
//! same structure with their own tag pair (A1/A2).

use crate::{backend, counting, Algorithm, Digest};
use rand::RngCore;
use std::ops::RangeInclusive;

/// How chain elements are derived from their predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// `h_i = H(h_{i-1})` — the classic Lamport chain. Vulnerable to the
    /// reformatting attack when used for ALPHA's unreliable mode; provided
    /// for the ablation benches and for protocols that do not need roles.
    Plain,
    /// Role-bound derivation with the signature-chain tags `"S1"` / `"S2"`.
    RoleBoundSignature,
    /// Role-bound derivation with the acknowledgment-chain tags `"A1"` / `"A2"`.
    RoleBoundAck,
}

impl ChainKind {
    /// Domain-separation tag for position `index` (1-based), or `None` for
    /// plain chains.
    #[must_use]
    pub fn tag(self, index: u64) -> Option<&'static [u8]> {
        match self {
            ChainKind::Plain => None,
            ChainKind::RoleBoundSignature => Some(if index % 2 == 1 {
                b"S1".as_slice()
            } else {
                b"S2".as_slice()
            }),
            ChainKind::RoleBoundAck => Some(if index % 2 == 1 {
                b"A1".as_slice()
            } else {
                b"A2".as_slice()
            }),
        }
    }
}

/// The protocol role a chain position may be used in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Authenticates the announcing packet of an exchange (S1 or A1).
    Announce,
    /// Keys the MAC / authenticates the disclosing packet (S2 or A2).
    Disclose,
}

/// Role encoded by a 1-based chain position: odd positions announce, even
/// positions disclose (the chain is always generated with even length so
/// the first consumed pair is `(odd, even)` descending).
#[must_use]
pub fn role_of(index: u64) -> Role {
    if index % 2 == 1 {
        Role::Announce
    } else {
        Role::Disclose
    }
}

/// Errors raised by chain generation and verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// The chain has no undisclosed elements left.
    Exhausted,
    /// A disclosed element's index does not descend from the last accepted
    /// element (replay or duplicate).
    NonDescendingIndex,
    /// Hashing forward from the disclosed element did not reproduce the
    /// last accepted element: the element is forged or corrupted.
    Mismatch,
    /// The verifier would need to hash forward more than its configured
    /// bound — rejected to bound CPU spent on garbage (resource-exhaustion
    /// defence, §3.5).
    SkipTooLarge,
    /// A disclosed element was presented in a role its position forbids
    /// (the reformatting attack of §3.2.1).
    WrongRole {
        /// Role the protocol context demanded.
        expected: Role,
        /// Role the element's chain position encodes.
        actual: Role,
    },
    /// An element index beyond the chain's length was requested
    /// ([`HashChain::try_element`]).
    IndexOutOfRange,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Exhausted => write!(f, "hash chain exhausted"),
            ChainError::NonDescendingIndex => write!(f, "chain element index does not descend"),
            ChainError::Mismatch => write!(f, "chain element does not hash to anchor"),
            ChainError::SkipTooLarge => write!(f, "chain element skips too many positions"),
            ChainError::WrongRole { expected, actual } => {
                write!(
                    f,
                    "chain element role {actual:?} where {expected:?} expected"
                )
            }
            ChainError::IndexOutOfRange => write!(f, "chain element index out of range"),
        }
    }
}

impl std::error::Error for ChainError {}

/// How a chain's owner stores it: one layout, a checkpoint every
/// `interval` elements with everything between them recomputed forward
/// from the checkpoint below, and two points on its memory / recompute
/// curve (Jakobsson, "Fractal hash sequence representation and
/// traversal", ISIT 2002).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStorage {
    /// Every element in memory (interval 1): O(n) space, no recompute —
    /// Table 2's signer column.
    Full,
    /// A checkpoint every `⌈√n⌉` elements: O(√n) space, at most `⌈√n⌉`
    /// hashes per access — for memory-constrained owners (the paper's
    /// sensor nodes hold 8 KB of RAM in all, §4.1.3).
    Sqrt,
}

impl ChainStorage {
    /// Elements between checkpoints of a chain of `len` elements.
    fn interval(self, len: u64) -> u64 {
        match self {
            ChainStorage::Full => 1,
            ChainStorage::Sqrt => ceil_sqrt(len),
        }
    }
}

/// The elements a chain owner holds.
#[derive(Clone)]
struct Storage {
    /// Retained so the chain can be frozen to a [`FrozenChain`], and
    /// because it is what checkpoints below `floor` are derived from when
    /// `super_checkpoint` cannot serve them.
    seed_hash: Digest,
    /// Elements between checkpoints: 1 or `⌈√len⌉` ([`ChainStorage`]).
    interval: u64,
    /// `checkpoints[k - floor] = h_{k·interval}`: a contiguous run of
    /// checkpoints from number `floor` up (checkpoint 0 is the seed hash).
    checkpoints: Vec<Digest>,
    /// Number of the lowest checkpoint held. 0 for a chain built by the
    /// full walk, which holds them all; a thawed chain holds its record's
    /// checkpoint alone until a disclosure steps below it
    /// ([`Storage::lower_floor`]).
    floor: u64,
    /// A thawed chain's one element under `floor`: checkpoint number
    /// [`super_of`]`(len, interval, floor)`, from which checkpoints down
    /// to it derive without the walk from the seed. `None` when that
    /// number is 0 (the seed hash serves) and once the floor has been
    /// lowered.
    super_checkpoint: Option<Digest>,
    len: u64,
}

impl Storage {
    /// The nearest element held at or below checkpoint number `k`, as
    /// `(number, element)`: a held checkpoint (the highest one when `k`
    /// lies above them all), else — under the floor — the
    /// super-checkpoint when it lies at or below `k`, else the seed hash.
    fn origin(&self, k: u64) -> (u64, Digest) {
        if k >= self.floor {
            let k = k.min(self.floor + self.checkpoints.len() as u64 - 1);
            return (k, self.checkpoints[(k - self.floor) as usize]);
        }
        let number = super_of(self.len, self.interval, self.floor);
        match self.super_checkpoint {
            Some(h) if k >= number => (number, h),
            _ => (0, self.seed_hash),
        }
    }

    /// If `index` lies under the lowest checkpoint held, derive every
    /// checkpoint from its origin up to the floor in one walk and keep
    /// them — the walk a thaw put off, paid by a chain that stays awake
    /// long enough to need it.
    fn lower_floor(&mut self, alg: Algorithm, kind: ChainKind, index: u64) {
        let interval = self.interval;
        if index >= self.floor * interval {
            return;
        }
        let (from, origin) = self.origin(index / interval);
        let mut run = Vec::with_capacity((self.floor - from) as usize + self.checkpoints.len());
        run.push(origin);
        let steps = from * interval + 1..=(self.floor - 1) * interval;
        walk(alg, [kind], [origin], steps, |i, [el]| {
            if i.is_multiple_of(interval) {
                run.push(*el);
            }
        });
        run.append(&mut self.checkpoints);
        self.checkpoints = run;
        self.floor = from;
        self.super_checkpoint = None;
    }
}

/// A generated hash chain owned by the signing (or acknowledging) side.
///
/// ```
/// use alpha_crypto::chain::{ChainKind, ChainVerifier, HashChain, Role};
/// use alpha_crypto::Algorithm;
///
/// let mut rng = rand::thread_rng();
/// let mut chain = HashChain::generate(
///     Algorithm::Sha1, ChainKind::RoleBoundSignature, 64, &mut rng);
///
/// // The verifier starts from the public anchor…
/// let mut verifier = ChainVerifier::new(
///     Algorithm::Sha1, ChainKind::RoleBoundSignature,
///     chain.anchor(), chain.anchor_index());
///
/// // …and authenticates each disclosed (announce, key) pair.
/// let ((a_idx, a_el), (k_idx, k_el)) = chain.disclose_pair().unwrap();
/// verifier.accept_role(a_idx, &a_el, Role::Announce).unwrap();
/// verifier.accept_role(k_idx, &k_el, Role::Disclose).unwrap();
///
/// // Replays are rejected by index descent.
/// assert!(verifier.accept_role(a_idx, &a_el, Role::Announce).is_err());
/// ```
#[derive(Clone)]
pub struct HashChain {
    alg: Algorithm,
    kind: ChainKind,
    storage: Storage,
    /// Index of the next element to disclose (descending; starts at `len-1`
    /// because the anchor `h_len` is published at bootstrap).
    next: u64,
}

impl HashChain {
    /// Generate a chain of `len` elements above the seed, every one kept.
    /// `len` is rounded up to the next even number so exchanges always
    /// consume aligned (announce, disclose) pairs.
    #[must_use]
    pub fn generate(alg: Algorithm, kind: ChainKind, len: u64, rng: &mut dyn RngCore) -> HashChain {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed(alg, kind, len, &seed)
    }

    /// Deterministic generation from an explicit seed (tests, regeneration).
    #[must_use]
    pub fn from_seed(alg: Algorithm, kind: ChainKind, len: u64, seed: &[u8]) -> HashChain {
        let [chain] = build(alg, len, ChainStorage::Full, [(kind, seed)]);
        chain
    }

    /// Deterministic generation of several chains, two at a time in
    /// lockstep. Every chain shares `alg`, `len` (rounded up to even as in
    /// [`HashChain::from_seed`]) and the `storage` layout; each `specs`
    /// entry supplies a chain's derivation kind and seed, and the output
    /// order matches `specs`. Byte-identical to generating each entry on
    /// its own — lanes change the schedule, never the derivation.
    ///
    /// Bootstrap and renewal are the callers: an association's signature
    /// and acknowledgment chains have the same algorithm and length, so
    /// both are produced in a single two-lane pass.
    #[must_use]
    pub fn from_seeds_batch(
        alg: Algorithm,
        len: u64,
        storage: ChainStorage,
        specs: &[(ChainKind, &[u8])],
    ) -> Vec<HashChain> {
        let mut chains = Vec::with_capacity(specs.len());
        for lanes in specs.chunks(2) {
            match *lanes {
                [a, b] => chains.extend(build(alg, len, storage, [a, b])),
                _ => chains.extend(build(alg, len, storage, [lanes[0]])),
            }
        }
        chains
    }

    /// Generate a chain with O(√n) checkpointed storage instead of keeping
    /// all elements — for memory-constrained owners (sensor nodes). Element
    /// access costs up to `⌈√n⌉` hash recomputations.
    #[must_use]
    pub fn generate_compact(
        alg: Algorithm,
        kind: ChainKind,
        len: u64,
        rng: &mut dyn RngCore,
    ) -> HashChain {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed_compact(alg, kind, len, &seed)
    }

    /// Deterministic compact generation (see [`HashChain::generate_compact`]).
    #[must_use]
    pub fn from_seed_compact(alg: Algorithm, kind: ChainKind, len: u64, seed: &[u8]) -> HashChain {
        let [chain] = build(alg, len, ChainStorage::Sqrt, [(kind, seed)]);
        chain
    }

    /// Hash algorithm of this chain.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.alg
    }

    /// Derivation kind of this chain.
    #[must_use]
    pub fn kind(&self) -> ChainKind {
        self.kind
    }

    /// Total number of elements above the seed.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.storage.len
    }

    /// True if the chain holds no elements (never: generation enforces ≥ 2).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.storage.len == 0
    }

    /// The anchor `h_n`, exchanged during bootstrapping.
    #[must_use]
    pub fn anchor(&self) -> Digest {
        self.element(self.storage.len)
    }

    /// Index of the anchor.
    #[must_use]
    pub fn anchor_index(&self) -> u64 {
        self.len()
    }

    /// Element at 1-based `index` (0 returns the seed hash `h_0`),
    /// recomputed forward from the nearest element held at or below it
    /// ([`Storage::origin`]) — nothing is kept: only disclosure lowers a
    /// thawed chain's floor.
    ///
    /// Returns [`ChainError::IndexOutOfRange`] when `index` exceeds
    /// [`HashChain::len`] — the checked twin of [`HashChain::element`].
    pub fn try_element(&self, index: u64) -> Result<Digest, ChainError> {
        if index > self.storage.len {
            return Err(ChainError::IndexOutOfRange);
        }
        let (k, origin) = self.storage.origin(index / self.storage.interval);
        let from = k * self.storage.interval;
        Ok(advance(self.alg, self.kind, origin, from, index))
    }

    /// Unchecked convenience form of [`HashChain::try_element`].
    ///
    /// # Panics
    /// Panics if `index` exceeds [`HashChain::len`]. Callers handling
    /// untrusted or computed indices should use [`HashChain::try_element`].
    #[must_use]
    pub fn element(&self, index: u64) -> Digest {
        self.try_element(index)
            .expect("chain element index out of range")
    }

    /// Like [`HashChain::element`], but first lowers the floor to keep
    /// the descending disclosures after it cheap.
    fn element_mut_path(&mut self, index: u64) -> Digest {
        self.storage.lower_floor(self.alg, self.kind, index);
        self.element(index)
    }

    /// How many undisclosed elements remain (excluding the seed).
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.next
    }

    /// Number of (announce, disclose) exchange pairs still available.
    #[must_use]
    pub fn remaining_pairs(&self) -> u64 {
        self.next / 2
    }

    /// Peek at the next undisclosed element without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<(u64, Digest)> {
        if self.next == 0 {
            None
        } else {
            Some((self.next, self.element(self.next)))
        }
    }

    /// Disclose the next element (descending).
    pub fn disclose(&mut self) -> Result<(u64, Digest), ChainError> {
        if self.next == 0 {
            return Err(ChainError::Exhausted);
        }
        let idx = self.next;
        self.next -= 1;
        Ok((idx, self.element_mut_path(idx)))
    }

    /// Disclose an aligned (announce, disclose) pair for one exchange:
    /// returns `((odd_index, announce_element), (even_index, key_element))`.
    ///
    /// If the cursor is mis-aligned (an even element is next because a
    /// previous exchange consumed only the announce half), the stray element
    /// is skipped — verifiers catch up over gaps by hashing forward.
    #[allow(clippy::type_complexity)] // two labelled (index, element) pairs
    pub fn disclose_pair(&mut self) -> Result<((u64, Digest), (u64, Digest)), ChainError> {
        if self.next.is_multiple_of(2) && self.next > 0 {
            // Skip the stale disclose-role element of an abandoned exchange.
            self.next -= 1;
        }
        if self.next < 2 {
            return Err(ChainError::Exhausted);
        }
        let key = (self.next - 1, self.element_mut_path(self.next - 1));
        // Read where every element is held; elsewhere one step above the
        // key, not a second walk from the checkpoint.
        let announce = if self.storage.interval == 1 {
            self.element(self.next)
        } else {
            derive(self.alg, self.kind, self.next, &key.1)
        };
        let announce = (self.next, announce);
        self.next -= 2;
        debug_assert_eq!(role_of(announce.0), Role::Announce);
        debug_assert_eq!(role_of(key.0), Role::Disclose);
        Ok((announce, key))
    }

    /// Bytes this chain's owner actually stores: the checkpoints held —
    /// every element for full storage (Table 2's signer strategy), O(√n)
    /// for compact storage — and the bookkeeping beside them.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        let s = &self.storage;
        (s.checkpoints.len() + usize::from(s.super_checkpoint.is_some())) * self.alg.digest_len()
            + 4 * std::mem::size_of::<u64>()
    }

    /// Which storage layout this chain uses (preserved across
    /// freeze/thaw so a thawed chain keeps its owner's memory profile).
    #[must_use]
    pub fn storage_kind(&self) -> ChainStorage {
        if self.storage.interval == 1 {
            ChainStorage::Full
        } else {
            ChainStorage::Sqrt
        }
    }

    /// Freeze this chain to its hibernation record: the seed hash `h_0`,
    /// the disclosure cursor, the one checkpoint at or below the cursor
    /// (`h_{⌊next/interval⌋·interval}`), which lets the thaw derive
    /// nothing, and the super-checkpoint under that (a coarser tier,
    /// `⌈√(len/interval)⌉` checkpoints apart), which the next freeze past
    /// a checkpoint boundary derives from. [`FrozenChain::thaw`] gives
    /// back a chain whose disclosures are byte-identical to this one's.
    #[must_use]
    pub fn freeze(&self) -> FrozenChain {
        let Storage {
            seed_hash,
            interval,
            len,
            ..
        } = self.storage;
        // Copies, unless the last disclosure left the cursor one segment
        // under the floor: then a walk from the super-checkpoint, and on
        // entering a new super-segment the new one's walk from the seed.
        let c = self.next / interval;
        let number = super_of(len, interval, c);
        FrozenChain {
            alg: self.alg,
            kind: self.kind,
            storage: self.storage_kind(),
            len,
            next: self.next,
            seed_hash,
            checkpoint: self.element(c * interval),
            super_checkpoint: (number > 0).then(|| self.element(number * interval)),
        }
    }
}

/// A hibernated hash chain: the seed hash `h_0`, the derivation
/// parameters, the disclosure cursor, the checkpoint under the cursor
/// and the super-checkpoint under that — a few dozen bytes regardless of
/// chain length, against up to `(len + 1) · s_h` live. Thawing hashes
/// nothing, and the thawed chain discloses the exact same bytes the
/// frozen one would have.
///
/// Records come from [`HashChain::freeze`] and
/// [`FrozenChain::decode`] alone, and [`FrozenChain::encode_into`] is
/// the one writer of their bytes.
#[derive(Clone, Copy)]
pub struct FrozenChain {
    alg: Algorithm,
    kind: ChainKind,
    storage: ChainStorage,
    /// Total elements above the seed.
    len: u64,
    /// Disclosure cursor at freeze time ([`HashChain::remaining`]).
    next: u64,
    /// The seed hash `h_0` — never disclosed on the wire.
    seed_hash: Digest,
    /// `h_{⌊next/interval⌋·interval}`, the checkpoint the next
    /// disclosures are derived from.
    checkpoint: Digest,
    /// Checkpoint number [`super_of`]`(len, interval, ⌊next/interval⌋)`
    /// when that is not 0 — its position follows from `len` and `next`,
    /// so the record carries the digest alone.
    super_checkpoint: Option<Digest>,
}

/// Record tag after the seed hash: the checkpoint, or the checkpoint and
/// the super-checkpoint.
const TAG_CHECKPOINT: u8 = 1;
const TAG_SUPER: u8 = 2;

/// Longest chain a record may claim: a hostile record must not drive the
/// walk from the seed arbitrarily far (the engine never builds longer).
const MAX_RECORD_LEN: u64 = 1 << 24;

impl FrozenChain {
    /// The checkpoint under the cursor the record carries.
    #[must_use]
    pub fn checkpoint(&self) -> Digest {
        self.checkpoint
    }

    /// The super-checkpoint the record carries, if any: with
    /// `top = ⌊len/interval⌋` and `s = ⌈√top⌉`, `h_{k·interval}` for the
    /// highest `k` of `top − s`, `top − 2s`, … under the cursor's
    /// checkpoint — `None` when that is the seed hash.
    #[must_use]
    pub fn super_checkpoint(&self) -> Option<Digest> {
        self.super_checkpoint
    }

    /// Append this record's bytes — [`FrozenChain::stored_bytes`] of
    /// them — to `out`: storage layout (1 byte, 0 full, 1 compact),
    /// length and cursor (8 each, big-endian), seed hash, then a tag, 1
    /// for the checkpoint, 2 for the checkpoint and the super-checkpoint.
    /// The algorithm and derivation kind are the caller's to record.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self.storage {
            ChainStorage::Full => 0,
            ChainStorage::Sqrt => 1,
        });
        out.extend_from_slice(&self.len.to_be_bytes());
        out.extend_from_slice(&self.next.to_be_bytes());
        out.extend_from_slice(self.seed_hash.as_bytes());
        out.push(match self.super_checkpoint {
            Some(_) => TAG_SUPER,
            None => TAG_CHECKPOINT,
        });
        out.extend_from_slice(self.checkpoint.as_bytes());
        if let Some(super_checkpoint) = self.super_checkpoint {
            out.extend_from_slice(super_checkpoint.as_bytes());
        }
    }

    /// Read one record [`FrozenChain::encode_into`] wrote off the front
    /// of `bytes`, advancing it past the record. Total: `None` on
    /// truncation, an unknown layout or tag, a length or cursor no chain
    /// has, or a super-checkpoint where the cursor leaves it no position.
    #[must_use]
    pub fn decode(bytes: &mut &[u8], alg: Algorithm, kind: ChainKind) -> Option<FrozenChain> {
        let storage = match take(bytes, 1)?[0] {
            0 => ChainStorage::Full,
            1 => ChainStorage::Sqrt,
            _ => return None,
        };
        let len = u64::from_be_bytes(take(bytes, 8)?.try_into().ok()?);
        let next = u64::from_be_bytes(take(bytes, 8)?.try_into().ok()?);
        if len < 2 || !len.is_multiple_of(2) || len > MAX_RECORD_LEN || next >= len {
            return None;
        }
        let digest = |bytes: &mut &[u8]| take(bytes, alg.digest_len()).map(Digest::from_slice);
        let seed_hash = digest(bytes)?;
        let tag = take(bytes, 1)?[0];
        let interval = storage.interval(len);
        let held = match tag {
            TAG_CHECKPOINT => false,
            TAG_SUPER if super_of(len, interval, next / interval) > 0 => true,
            _ => return None,
        };
        let checkpoint = digest(bytes)?;
        let super_checkpoint = if held { Some(digest(bytes)?) } else { None };
        Some(FrozenChain {
            alg,
            kind,
            storage,
            len,
            next,
            seed_hash,
            checkpoint,
            super_checkpoint,
        })
    }

    /// The live chain, holding the record's checkpoint alone (and its
    /// super-checkpoint beside it): nothing is hashed.
    #[must_use]
    pub fn thaw(&self) -> HashChain {
        let interval = self.storage.interval(self.len);
        HashChain {
            alg: self.alg,
            kind: self.kind,
            storage: Storage {
                seed_hash: self.seed_hash,
                interval,
                checkpoints: vec![self.checkpoint],
                floor: self.next / interval,
                super_checkpoint: self.super_checkpoint,
                len: self.len,
            },
            next: self.next,
        }
    }

    /// Bytes this record occupies (the hibernation footprint): exactly
    /// what [`FrozenChain::encode_into`] writes.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        let digests = 2 + usize::from(self.super_checkpoint.is_some());
        // Layout and tag bytes, length and cursor.
        2 + 2 * std::mem::size_of::<u64>() + digests * self.alg.digest_len()
    }
}

/// Build `N` chains of one algorithm, length and layout in lockstep from
/// their seeds: one walk from each `H(seed)` to the anchor, every
/// `interval`-th element kept.
fn build<const N: usize>(
    alg: Algorithm,
    len: u64,
    storage: ChainStorage,
    lanes: [(ChainKind, &[u8]); N],
) -> [HashChain; N] {
    let len = len.next_multiple_of(2);
    assert!(len >= 2, "chain must hold at least one exchange pair");
    let interval = storage.interval(len);
    let kinds = lanes.map(|(kind, _)| kind);
    let seeds = lanes.map(|(_, seed)| alg.hash(seed));
    let mut checkpoints = seeds.map(|seed_hash| {
        let mut held = Vec::with_capacity((len / interval) as usize + 1);
        held.push(seed_hash); // h_0: never disclosed
        held
    });
    walk(alg, kinds, seeds, 1..=len, |i, els| {
        if i.is_multiple_of(interval) {
            for (held, el) in checkpoints.iter_mut().zip(els) {
                held.push(*el);
            }
        }
    });
    let mut checkpoints = checkpoints.into_iter();
    std::array::from_fn(|l| HashChain {
        alg,
        kind: kinds[l],
        storage: Storage {
            seed_hash: seeds[l],
            interval,
            checkpoints: checkpoints.next().expect("one run per lane"),
            floor: 0,
            super_checkpoint: None,
            len,
        },
        // The anchor `h_len` is published at bootstrap, so the traversal
        // starts by disclosing `len - 1`.
        next: len - 1,
    })
}

/// The one place chain elements are derived: walk `N` lanes of `alg`, each
/// of its own kind, from their elements just below `steps` through every
/// position in `steps`, hand each step's position and elements to `sink`,
/// and return the elements at the end.
///
/// A SHA step hashes `tag | h` — at most 34 bytes, always one block — so
/// each lane keeps one pre-padded 64-byte block, rewrites only its tag and
/// digest bytes per step and compresses it from the IV with the backend
/// resolved once; two lanes share the two-stream SHA-NI kernel. MMO's
/// 16-byte block (and a digest of foreign length) takes the ordinary
/// hasher. [`counting`] sees exactly what hashing each step on its own
/// would have recorded.
fn walk<const N: usize>(
    alg: Algorithm,
    kinds: [ChainKind; N],
    mut cur: [Digest; N],
    steps: RangeInclusive<u64>,
    mut sink: impl FnMut(u64, &[Digest; N]),
) -> [Digest; N] {
    if steps.is_empty() {
        return cur;
    }
    let digest_len = alg.digest_len();
    if alg.block_len() != 64 || cur.iter().any(|el| el.len() != digest_len) {
        for i in steps {
            for (kind, el) in kinds.iter().zip(cur.iter_mut()) {
                *el = alg.hash_parts(&[kind.tag(i).unwrap_or_default(), el.as_bytes()]);
            }
            sink(i, &cur);
        }
        return cur;
    }
    let tier = backend::active();
    let mut blocks = [[0u8; 64]; N];
    // Where each lane's digest sits in its block: right after the tag.
    let at = kinds.map(|k| k.tag(1).map_or(0, <[u8]>::len));
    for l in 0..N {
        let end = at[l] + digest_len;
        blocks[l][at[l]..end].copy_from_slice(cur[l].as_bytes());
        blocks[l][end] = 0x80;
        blocks[l][56..].copy_from_slice(&(end as u64 * 8).to_be_bytes());
    }
    let mut taken = 0;
    for i in steps {
        for l in 0..N {
            if let Some(tag) = kinds[l].tag(i) {
                blocks[l][..at[l]].copy_from_slice(tag);
            }
        }
        backend::hash_padded_blocks(tier, alg, &blocks, &mut cur);
        for l in 0..N {
            blocks[l][at[l]..at[l] + digest_len].copy_from_slice(cur[l].as_bytes());
        }
        sink(i, &cur);
        taken += 1;
    }
    for offset in at {
        counting::record_n(alg, offset + digest_len, taken);
    }
    cur
}

/// `⌈√n⌉`: a compact chain's checkpoint interval for `n = len`, and any
/// chain's super-checkpoint spacing for `n` = the number of checkpoints.
fn ceil_sqrt(n: u64) -> u64 {
    (n as f64).sqrt().ceil() as u64
}

/// Number of the super-checkpoint that serves a chain whose cursor lies
/// over checkpoint `c`: the coarser tier sits every
/// `s = ⌈√top⌉` checkpoints counted down from the top one,
/// `top = ⌊len/interval⌋`, and this is the highest of `top − s`,
/// `top − 2s`, … strictly below `c` — 0, the seed hash, when none is.
/// A cursor that crosses a checkpoint boundary then derives the new
/// checkpoint from it in at most `s − 1` intervals of hashing; only
/// stepping onto the super-checkpoint itself needs the next one down,
/// walked from the seed.
fn super_of(len: u64, interval: u64, c: u64) -> u64 {
    let top = len / interval;
    debug_assert!(c <= top, "the cursor lies in the chain");
    let spacing = ceil_sqrt(top);
    top.saturating_sub((top + 1 - c).div_ceil(spacing) * spacing)
}

/// Split `n` bytes off the front of `bytes`.
fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = bytes.split_at_checked(n)?;
    *bytes = rest;
    Some(head)
}

/// One lane from `h_from` to `h_to`, the elements in between discarded.
fn advance(alg: Algorithm, kind: ChainKind, h_from: Digest, from: u64, to: u64) -> Digest {
    let [h_to] = walk(alg, [kind], [h_from], from + 1..=to, |_, _| {});
    h_to
}

/// Derive `h_index` from `h_{index-1}` — one forward step of the chain.
/// Public so buffered-exchange verifiers can link a late-disclosed key to
/// an already-authenticated announce element without rewinding a tracker.
#[must_use]
pub fn derive(alg: Algorithm, kind: ChainKind, index: u64, prev: &Digest) -> Digest {
    let [h] = walk(alg, [kind], [*prev], index..=index, |_, _| {});
    h
}

/// Verifier-side chain state: the last authenticated element and its index.
///
/// Starts from the anchor received at bootstrap and walks downwards as the
/// owner discloses elements. Tolerates gaps (lost packets) up to `max_skip`
/// forward hashes per acceptance.
#[derive(Clone)]
pub struct ChainVerifier {
    alg: Algorithm,
    kind: ChainKind,
    last: Digest,
    last_index: u64,
    max_skip: u64,
}

/// Default bound on forward hashing per disclosed element.
pub const DEFAULT_MAX_SKIP: u64 = 128;

impl ChainVerifier {
    /// Track a chain from its `anchor` at `anchor_index`.
    #[must_use]
    pub fn new(
        alg: Algorithm,
        kind: ChainKind,
        anchor: Digest,
        anchor_index: u64,
    ) -> ChainVerifier {
        ChainVerifier {
            alg,
            kind,
            last: anchor,
            last_index: anchor_index,
            max_skip: DEFAULT_MAX_SKIP,
        }
    }

    /// Replace the skip bound (CPU-DoS defence knob).
    #[must_use]
    pub fn with_max_skip(mut self, max_skip: u64) -> ChainVerifier {
        self.max_skip = max_skip;
        self
    }

    /// Last authenticated element.
    #[must_use]
    pub fn last(&self) -> (u64, Digest) {
        (self.last_index, self.last)
    }

    /// Configured forward-hashing bound (for freezing a verifier: the
    /// tuple `(last, max_skip)` rebuilds an identical tracker via
    /// [`ChainVerifier::new`] + [`ChainVerifier::with_max_skip`]).
    #[must_use]
    pub fn max_skip(&self) -> u64 {
        self.max_skip
    }

    /// Memory this verifier holds: one digest plus the index — the `h` per
    /// chain in Table 2's verifier/relay columns.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        self.alg.digest_len() + std::mem::size_of::<u64>()
    }

    /// Check `element` claimed at `index` without accepting it.
    pub fn check(&self, index: u64, element: &Digest) -> Result<(), ChainError> {
        if index >= self.last_index {
            return Err(ChainError::NonDescendingIndex);
        }
        let skip = self.last_index - index;
        if skip > self.max_skip {
            return Err(ChainError::SkipTooLarge);
        }
        let cur = advance(self.alg, self.kind, *element, index, self.last_index);
        if crate::ct_eq(cur.as_bytes(), self.last.as_bytes()) {
            Ok(())
        } else {
            Err(ChainError::Mismatch)
        }
    }

    /// Check `element` at `index` and additionally require its positional
    /// role to be `role` (the reformatting-attack defence).
    pub fn check_role(&self, index: u64, element: &Digest, role: Role) -> Result<(), ChainError> {
        let actual = role_of(index);
        if self.kind != ChainKind::Plain && actual != role {
            return Err(ChainError::WrongRole {
                expected: role,
                actual,
            });
        }
        self.check(index, element)
    }

    /// Authenticate and accept `element` at `index`, advancing the verifier.
    pub fn accept(&mut self, index: u64, element: &Digest) -> Result<(), ChainError> {
        self.check(index, element)?;
        self.last = *element;
        self.last_index = index;
        Ok(())
    }

    /// Authenticate with a role requirement, then accept.
    pub fn accept_role(
        &mut self,
        index: u64,
        element: &Digest,
        role: Role,
    ) -> Result<(), ChainError> {
        self.check_role(index, element, role)?;
        self.last = *element;
        self.last_index = index;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn generation_is_deterministic_from_seed() {
        let a = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 10, b"seed");
        let b = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 10, b"seed");
        assert_eq!(a.anchor(), b.anchor());
        assert_eq!(a.element(3), b.element(3));
    }

    #[test]
    fn odd_length_rounds_up() {
        let c = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 9, b"x");
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn try_element_rejects_out_of_range() {
        for c in [
            HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 8, b"x"),
            HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::Plain, 8, b"x"),
        ] {
            assert_eq!(c.try_element(8).unwrap(), c.anchor());
            assert_eq!(c.try_element(9), Err(ChainError::IndexOutOfRange));
        }
    }

    #[test]
    fn batch_generation_matches_from_seed() {
        for alg in [Algorithm::Sha1, Algorithm::Sha256, Algorithm::MmoAes] {
            let specs: [(ChainKind, &[u8]); 6] = [
                (ChainKind::RoleBoundSignature, b"sig seed"),
                (ChainKind::RoleBoundAck, b"ack seed"),
                (ChainKind::Plain, b"plain seed"),
                (ChainKind::RoleBoundSignature, b"another"),
                (ChainKind::Plain, b""),
                (ChainKind::RoleBoundAck, b"sixth lane spills a sweep"),
            ];
            let batch = HashChain::from_seeds_batch(alg, 12, ChainStorage::Full, &specs);
            assert_eq!(batch.len(), specs.len());
            for ((kind, seed), chain) in specs.iter().zip(&batch) {
                let solo = HashChain::from_seed(alg, *kind, 12, seed);
                assert_eq!(chain.anchor(), solo.anchor());
                for i in 0..=12 {
                    assert_eq!(chain.element(i), solo.element(i));
                }
            }
        }
    }

    #[test]
    fn disclosure_descends_and_verifies() {
        let mut chain = HashChain::generate(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            16,
            &mut rng(),
        );
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        for _ in 0..chain.anchor_index() - 1 {
            let (idx, el) = chain.disclose().unwrap();
            verifier.accept(idx, &el).unwrap();
        }
        assert_eq!(chain.disclose().unwrap_err(), ChainError::Exhausted);
    }

    #[test]
    fn verifier_catches_up_over_gaps() {
        let chain =
            HashChain::from_seed(Algorithm::Sha256, ChainKind::RoleBoundSignature, 32, b"g");
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha256,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        // Lose elements 31..=25, accept 24 directly.
        verifier.accept(24, &chain.element(24)).unwrap();
        assert_eq!(verifier.last().0, 24);
    }

    #[test]
    fn replay_rejected() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"r");
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        verifier.accept(7, &chain.element(7)).unwrap();
        assert_eq!(
            verifier.accept(7, &chain.element(7)).unwrap_err(),
            ChainError::NonDescendingIndex
        );
        assert_eq!(
            verifier.accept(8, &chain.element(8)).unwrap_err(),
            ChainError::NonDescendingIndex
        );
    }

    #[test]
    fn forgery_rejected() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"f");
        let other =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"not f");
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        assert_eq!(
            verifier.accept(7, &other.element(7)).unwrap_err(),
            ChainError::Mismatch
        );
    }

    #[test]
    fn skip_bound_enforced() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 64, b"s");
        let mut verifier =
            ChainVerifier::new(Algorithm::Sha1, ChainKind::Plain, chain.anchor(), 64)
                .with_max_skip(4);
        assert_eq!(
            verifier.accept(32, &chain.element(32)).unwrap_err(),
            ChainError::SkipTooLarge
        );
        verifier.accept(60, &chain.element(60)).unwrap();
    }

    #[test]
    fn role_binding_rejects_cross_role_use() {
        let chain =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"role");
        let verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        // Element 7 is an announce-role element; presenting it as a MAC key
        // (disclose role) must fail even though the hash itself checks out.
        assert!(matches!(
            verifier.check_role(7, &chain.element(7), Role::Disclose),
            Err(ChainError::WrongRole { .. })
        ));
        verifier
            .check_role(7, &chain.element(7), Role::Announce)
            .unwrap();
    }

    #[test]
    fn reformatting_attack_blocked() {
        // An attacker intercepts S2 (disclosing h_{i-1}, even role) and the
        // next S1 (revealing h_{i-2}... actually the next odd below). With
        // role binding, substituting an even-role element where an odd-role
        // element is required fails structurally.
        let chain =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 16, b"atk");
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            chain.anchor(),
            chain.anchor_index(),
        );
        // Legitimate first exchange: announce h15, disclose h14.
        verifier
            .accept_role(15, &chain.element(15), Role::Announce)
            .unwrap();
        verifier
            .accept_role(14, &chain.element(14), Role::Disclose)
            .unwrap();
        // Attacker replays captured h13 (announce role) as a *MAC key*: rejected.
        assert!(matches!(
            verifier.check_role(13, &chain.element(13), Role::Disclose),
            Err(ChainError::WrongRole { .. })
        ));
    }

    #[test]
    fn plain_chain_has_no_roles() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 8, b"p");
        let verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::Plain,
            chain.anchor(),
            chain.anchor_index(),
        );
        // Any role is accepted on a plain chain.
        verifier
            .check_role(7, &chain.element(7), Role::Disclose)
            .unwrap();
        verifier
            .check_role(7, &chain.element(7), Role::Announce)
            .unwrap();
    }

    #[test]
    fn plain_and_rolebound_chains_differ() {
        let a = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 8, b"k");
        let b = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 8, b"k");
        let c = HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundAck, 8, b"k");
        assert_ne!(a.anchor(), b.anchor());
        assert_ne!(b.anchor(), c.anchor());
    }

    #[test]
    fn disclose_pair_alternates_roles() {
        let mut chain = HashChain::generate(
            Algorithm::MmoAes,
            ChainKind::RoleBoundSignature,
            12,
            &mut rng(),
        );
        let ((i1, _), (i2, _)) = chain.disclose_pair().unwrap();
        assert_eq!(i1 % 2, 1);
        assert_eq!(i2, i1 - 1);
        let ((j1, _), _) = chain.disclose_pair().unwrap();
        assert_eq!(j1, i1 - 2);
    }

    #[test]
    fn disclose_pair_realigns_after_single_disclose() {
        let mut chain =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 12, b"align");
        let (idx, _) = chain.disclose().unwrap(); // consumes 11 (announce)
        assert_eq!(idx, 11);
        // Cursor now points at 10 (disclose role); pair must skip to (9, 8).
        let ((a, _), (k, _)) = chain.disclose_pair().unwrap();
        assert_eq!((a, k), (9, 8));
    }

    #[test]
    fn exhaustion_via_pairs() {
        let mut chain =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 4, b"ex");
        assert_eq!(chain.remaining_pairs(), 1);
        chain.disclose_pair().unwrap();
        assert_eq!(chain.disclose_pair().unwrap_err(), ChainError::Exhausted);
    }

    #[test]
    fn verifier_stored_bytes_is_one_digest() {
        let chain = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, 8, b"m");
        let v = ChainVerifier::new(Algorithm::Sha1, ChainKind::Plain, chain.anchor(), 8);
        assert_eq!(v.stored_bytes(), 20 + 8);
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn compact_equals_full_everywhere() {
        for len in [4u64, 10, 63, 100] {
            let full =
                HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, b"c");
            let compact = HashChain::from_seed_compact(
                Algorithm::Sha1,
                ChainKind::RoleBoundSignature,
                len,
                b"c",
            );
            assert_eq!(full.anchor(), compact.anchor(), "len={len}");
            assert_eq!(full.len(), compact.len());
            for i in 0..=full.len() {
                assert_eq!(full.element(i), compact.element(i), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn compact_disclosure_interoperates_with_verifier() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut chain =
            HashChain::generate_compact(Algorithm::MmoAes, ChainKind::RoleBoundAck, 64, &mut rng);
        let mut verifier = ChainVerifier::new(
            Algorithm::MmoAes,
            ChainKind::RoleBoundAck,
            chain.anchor(),
            chain.anchor_index(),
        );
        while let Ok(((ai, ae), (ki, ke))) = chain.disclose_pair() {
            verifier.accept_role(ai, &ae, Role::Announce).unwrap();
            verifier.accept_role(ki, &ke, Role::Disclose).unwrap();
        }
    }

    #[test]
    fn compact_storage_is_sublinear() {
        let len = 4096u64;
        let full = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        let compact = HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        // √4096 = 64 checkpoints (+ seed) vs 4097 elements.
        assert!(compact.stored_bytes() * 30 < full.stored_bytes());
        assert!(compact.stored_bytes() >= 64 * 20);
    }

    #[test]
    fn compact_element_recompute_cost_is_bounded() {
        let len = 1024u64;
        let compact = HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::Plain, len, b"x");
        let scope = crate::counting::Scope::start();
        let _ = compact.element(777);
        let c = scope.finish();
        assert!(
            c.invocations <= 32,
            "≤ √n hashes per access, got {}",
            c.invocations
        );
    }

    #[test]
    fn sqrt_traversal_cost_is_n_sqrt_n_total() {
        let len = 1024u64;
        let mut compact =
            HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::Plain, len, b"c");
        let scope = crate::counting::Scope::start();
        while compact.disclose().is_ok() {}
        let c = scope.finish();
        // Each disclosure walks up from the checkpoint below it: at most
        // n·√n / 2 hashes over the chain…
        let bound = len * 32 / 2;
        assert!(c.invocations <= bound, "{} > {bound}", c.invocations);
        // …against O(n²) recomputing every element from the seed.
        assert!(c.invocations < len * len / 32);
    }
}

#[cfg(test)]
mod freeze_tests {
    use super::*;

    fn chains(len: u64, seed: &[u8]) -> [HashChain; 2] {
        [
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, seed),
            HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, seed),
        ]
    }

    #[test]
    fn freeze_thaw_preserves_disclosures_across_storages() {
        for mut live in chains(32, b"ft") {
            // Freeze at several cursors, including fresh and near-exhausted.
            for _ in 0..3 {
                live.disclose_pair().unwrap();
            }
            let frozen = live.freeze();
            assert_eq!(frozen.storage, live.storage_kind());
            let mut thawed = frozen.thaw();
            assert_eq!(thawed.remaining(), live.remaining());
            assert_eq!(thawed.anchor(), live.anchor());
            while let Ok(pair) = live.disclose_pair() {
                assert_eq!(thawed.disclose_pair().unwrap(), pair);
            }
            assert_eq!(thawed.disclose_pair().unwrap_err(), ChainError::Exhausted);
        }
    }

    #[test]
    fn frozen_record_is_small_and_storage_preserved() {
        for live in chains(1024, b"small") {
            let frozen = live.freeze();
            // Layout, length, cursor, tag; the seed hash, the checkpoint
            // and the super-checkpoint, whatever the layout.
            assert_eq!(frozen.stored_bytes(), 18 + 3 * 20);
            assert!(frozen.stored_bytes() < live.stored_bytes());
            let mut bytes = Vec::new();
            frozen.encode_into(&mut bytes);
            assert_eq!(bytes.len(), frozen.stored_bytes());
            let mut rest = bytes.as_slice();
            let decoded = FrozenChain::decode(&mut rest, frozen.alg, frozen.kind).unwrap();
            assert!(rest.is_empty());
            assert_eq!(decoded.thaw().storage_kind(), live.storage_kind());
        }
    }

    #[test]
    fn full_record_thaws_mid_traversal_without_hashing() {
        let mut live =
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, 64, b"z");
        for _ in 0..7 {
            live.disclose_pair().unwrap();
        }
        let frozen = live.freeze();
        let scope = crate::counting::Scope::start();
        let mut thawed = frozen.thaw();
        assert_eq!(scope.finish(), crate::counting::Counts::default());
        assert_eq!(thawed.storage_kind(), ChainStorage::Full);
        assert_eq!(thawed.remaining(), live.remaining());
        while let Ok((a, k)) = live.disclose_pair() {
            assert_eq!(thawed.disclose_pair().unwrap(), (a, k));
        }
        assert!(thawed.disclose_pair().is_err());
    }

    #[test]
    fn freeze_thaw_of_exhausted_chain_stays_exhausted() {
        for mut live in chains(4, b"done") {
            while live.disclose().is_ok() {}
            let mut thawed = live.freeze().thaw();
            assert_eq!(thawed.remaining(), 0);
            assert_eq!(thawed.disclose().unwrap_err(), ChainError::Exhausted);
        }
    }

    #[test]
    fn thawed_chain_interoperates_with_mid_stream_verifier() {
        for alg in Algorithm::ALL {
            let mut live = HashChain::from_seed(alg, ChainKind::RoleBoundAck, 64, b"interop");
            let mut verifier = ChainVerifier::new(
                alg,
                ChainKind::RoleBoundAck,
                live.anchor(),
                live.anchor_index(),
            );
            for _ in 0..5 {
                let ((ai, ae), (ki, ke)) = live.disclose_pair().unwrap();
                verifier.accept_role(ai, &ae, Role::Announce).unwrap();
                verifier.accept_role(ki, &ke, Role::Disclose).unwrap();
            }
            // Hibernate both sides; the verifier freezes to (last, max_skip).
            let mut thawed = live.freeze().thaw();
            let (last_index, last) = verifier.last();
            let mut v2 = ChainVerifier::new(alg, ChainKind::RoleBoundAck, last, last_index)
                .with_max_skip(verifier.max_skip());
            while let Ok(((ai, ae), (ki, ke))) = thawed.disclose_pair() {
                v2.accept_role(ai, &ae, Role::Announce).unwrap();
                v2.accept_role(ki, &ke, Role::Disclose).unwrap();
            }
        }
    }
}
