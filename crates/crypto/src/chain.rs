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

/// How a chain owner stores its elements.
#[derive(Clone)]
enum Storage {
    /// Every element kept in memory: O(n) space, O(1) element access.
    /// `elements[0]` is the seed hash `h_0`; the anchor is `elements[len]`.
    Full(Vec<Digest>),
    /// Checkpointed storage for memory-constrained owners (the paper's
    /// sensor nodes hold 8 KB of RAM total): every `interval`-th element is
    /// kept, anything else is recomputed forward from the checkpoint below
    /// it. With `interval = ⌈√n⌉` this is the classic O(√n) space /
    /// O(√n) amortized time point on the hash-chain traversal curve.
    Compact {
        /// Retained so the chain can be frozen to a [`FrozenChain`], and
        /// because it is what checkpoints below `floor` are derived from
        /// when `super_checkpoint` cannot serve them.
        seed_hash: Digest,
        interval: u64,
        /// `checkpoints[k - floor] = h_{k·interval}`: a contiguous run of
        /// checkpoints from number `floor` up (checkpoint 0 is the seed
        /// hash).
        checkpoints: Vec<Digest>,
        /// Number of the lowest checkpoint held. 0 for a chain built by
        /// the full walk, which holds them all; a chain thawed from
        /// [`FrozenChain::checkpoint`] holds that one alone until a
        /// disclosure steps below it ([`HashChain::lower_floor`]).
        floor: u64,
        /// A thawed chain's one element under `floor`: checkpoint number
        /// [`super_of`]`(len, interval, floor)`, from which checkpoints
        /// down to it derive without the walk from the seed. `None` when
        /// that number is 0 (the seed hash serves) and once the floor
        /// has been lowered.
        super_checkpoint: Option<Digest>,
        len: u64,
    },
    /// Lazy dyadic checkpointing: one pebble per power-of-two level,
    /// `⌈log2 n⌉ + 1` digests total. Pebble `j` holds the element at the
    /// base of the `2^j`-aligned segment containing the traversal cursor
    /// and is refreshed from pebble `j+1` when the cursor crosses a `2^j`
    /// boundary — O(log n) memory, O(log n) *amortized* hashes per
    /// disclosure (worst-case single-step spikes of up to n/2 at the few
    /// large boundaries, unlike Jakobsson's fully smoothed traversal).
    Dyadic {
        /// `pebbles[j]` = element at position `base_j(cursor)`, where
        /// `base_j(p) = (p >> j) << j`; `pebbles[0]` tracks the cursor
        /// itself. Pebble `k` stays at position 0 (the seed hash).
        pebbles: Vec<Digest>,
        /// Position each pebble currently holds.
        positions: Vec<u64>,
        len: u64,
    },
}

impl Storage {
    /// `f`'s layout holding only `h_0`, ready to [`Storage::absorb`] the
    /// rebuild walk.
    fn seeded(f: &FrozenChain) -> Storage {
        debug_assert!(f.len >= 2 && f.len.is_multiple_of(2));
        let (len, seed_hash) = (f.len, f.seed_hash);
        match f.storage {
            StorageKind::Full => {
                let mut elements = Vec::with_capacity(len as usize + 1);
                elements.push(seed_hash); // h_0: never disclosed
                Storage::Full(elements)
            }
            StorageKind::Compact => {
                let interval = ceil_sqrt(len);
                let (checkpoints, floor) = match f.checkpoint {
                    // The checkpoint under the cursor is all the next
                    // disclosures read: nothing to walk.
                    Some(checkpoint) => (vec![checkpoint], f.next / interval),
                    None => {
                        let mut all = Vec::with_capacity((len / interval) as usize + 1);
                        all.push(seed_hash);
                        (all, 0)
                    }
                };
                Storage::Compact {
                    seed_hash,
                    interval,
                    checkpoints,
                    floor,
                    super_checkpoint: f.super_checkpoint,
                    len,
                }
            }
            StorageKind::Dyadic => {
                let cursor = f.rebuild_steps();
                // ⌈log2 len⌉ + 1 pebbles; pebble j sits at
                // base_j(cursor) = (cursor >> j) << j.
                let levels = 64 - (len - 1).leading_zeros() as u64 + 1;
                let mut positions: Vec<u64> = (0..levels).map(|j| (cursor >> j) << j).collect();
                // Highest pebble anchors the recursion at the seed.
                *positions.last_mut().expect("levels >= 1") = 0;
                Storage::Dyadic {
                    pebbles: vec![seed_hash; levels as usize],
                    positions,
                    len,
                }
            }
        }
    }

    /// Rebuild-walk sink: keep `h_i` wherever this layout stores it.
    fn absorb(&mut self, i: u64, element: &Digest) {
        match self {
            Storage::Full(elements) => elements.push(*element),
            Storage::Compact {
                interval,
                checkpoints,
                ..
            } => {
                if i.is_multiple_of(*interval) {
                    checkpoints.push(*element);
                }
            }
            Storage::Dyadic {
                pebbles, positions, ..
            } => {
                for (pebble, &pos) in pebbles.iter_mut().zip(positions.iter()) {
                    if pos == i {
                        *pebble = *element;
                    }
                }
            }
        }
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
    /// Generate a chain of `len` elements above the seed. `len` is rounded
    /// up to the next even number so exchanges always consume aligned
    /// (announce, disclose) pairs.
    #[must_use]
    pub fn generate(alg: Algorithm, kind: ChainKind, len: u64, rng: &mut dyn RngCore) -> HashChain {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed(alg, kind, len, &seed)
    }

    /// Deterministic generation from an explicit seed (tests, regeneration).
    #[must_use]
    pub fn from_seed(alg: Algorithm, kind: ChainKind, len: u64, seed: &[u8]) -> HashChain {
        FrozenChain::fresh(alg, kind, StorageKind::Full, len, seed).thaw()
    }

    /// Deterministic generation of several chains, two at a time in
    /// lockstep (see [`FrozenChain::thaw_pair`]). Every chain shares `alg`,
    /// `len` (rounded up to even as in [`HashChain::from_seed`]) and the
    /// `storage` layout; each `specs` entry supplies a chain's derivation
    /// kind and seed, and the output order matches `specs`. Byte-identical
    /// to generating each entry on its own — lanes change the schedule,
    /// never the derivation.
    ///
    /// Bootstrap and renewal are the callers: an association's signature
    /// and acknowledgment chains have the same algorithm and length, so
    /// both are produced in a single two-lane pass.
    #[must_use]
    pub fn from_seeds_batch(
        alg: Algorithm,
        len: u64,
        storage: StorageKind,
        specs: &[(ChainKind, &[u8])],
    ) -> Vec<HashChain> {
        let fresh =
            |&(kind, seed): &(ChainKind, &[u8])| FrozenChain::fresh(alg, kind, storage, len, seed);
        let mut chains = Vec::with_capacity(specs.len());
        for lanes in specs.chunks(2) {
            match lanes {
                [a, b] => chains.extend(rebuild([&fresh(a), &fresh(b)])),
                _ => chains.extend(rebuild([&fresh(&lanes[0])])),
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
        FrozenChain::fresh(alg, kind, StorageKind::Compact, len, seed).thaw()
    }

    /// Generate a chain with O(log n) dyadic-pebble storage — the lowest-
    /// memory option; element access costs O(log n) hashes amortized.
    #[must_use]
    pub fn generate_dyadic(
        alg: Algorithm,
        kind: ChainKind,
        len: u64,
        rng: &mut dyn RngCore,
    ) -> HashChain {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed_dyadic(alg, kind, len, &seed)
    }

    /// Deterministic dyadic generation (see [`HashChain::generate_dyadic`]).
    #[must_use]
    pub fn from_seed_dyadic(alg: Algorithm, kind: ChainKind, len: u64, seed: &[u8]) -> HashChain {
        FrozenChain::fresh(alg, kind, StorageKind::Dyadic, len, seed).thaw()
    }

    fn total_len(&self) -> u64 {
        match &self.storage {
            Storage::Full(e) => e.len() as u64 - 1,
            Storage::Compact { len, .. } => *len,
            Storage::Dyadic { len, .. } => *len,
        }
    }

    /// Compact storage only: if `index` lies under the lowest checkpoint
    /// held, derive every checkpoint from the nearest origin below it up
    /// to the floor in one walk and keep them — the walk a thaw from a
    /// checkpoint put off, paid by a chain that stays awake long enough
    /// to need it. The origin is the super-checkpoint when `index` lies
    /// in its super-segment, else the seed hash.
    fn lower_floor(&mut self, index: u64) {
        let Storage::Compact {
            interval,
            checkpoints,
            floor,
            ..
        } = &self.storage
        else {
            unreachable!("caller checked");
        };
        let (interval, old_floor, held) = (*interval, *floor, checkpoints.len());
        if index >= old_floor * interval {
            return;
        }
        let (from, origin) = self.under_floor(index / interval);
        let mut run = Vec::with_capacity((old_floor - from) as usize + held);
        run.push(origin);
        let steps = from * interval + 1..=(old_floor - 1) * interval;
        walk(self.alg, [self.kind], [origin], steps, |i, [el]| {
            if i.is_multiple_of(interval) {
                run.push(*el);
            }
        });
        let Storage::Compact {
            checkpoints,
            floor,
            super_checkpoint,
            ..
        } = &mut self.storage
        else {
            unreachable!("matched above");
        };
        run.append(checkpoints);
        *checkpoints = run;
        *floor = from;
        *super_checkpoint = None;
    }

    /// Compact storage only: where a lookup at checkpoint number `k`
    /// under the floor walks from, as `(number, element)` — the
    /// super-checkpoint when the chain holds it and it lies at or below
    /// `k`, else the seed hash (checkpoint 0).
    fn under_floor(&self, k: u64) -> (u64, Digest) {
        let Storage::Compact {
            seed_hash,
            interval,
            floor,
            super_checkpoint,
            len,
            ..
        } = &self.storage
        else {
            unreachable!("caller checked");
        };
        debug_assert!(k < *floor, "only under the floor");
        let number = super_of(*len, *interval, *floor);
        match super_checkpoint {
            Some(h) if k >= number => (number, *h),
            _ => (0, *seed_hash),
        }
    }

    /// Dyadic storage only: restore the invariant `positions[j] ==
    /// base_j(index)` for a (non-increasing) access at `index`, refreshing
    /// stale pebbles top-down, then return the element at `index`.
    fn dyadic_element(&mut self, index: u64) -> Digest {
        let alg = self.alg;
        let kind = self.kind;
        let Storage::Dyadic {
            pebbles,
            positions,
            len,
        } = &mut self.storage
        else {
            unreachable!("caller checked");
        };
        // Internal invariant, not a release-mode bounds check: the only
        // caller (`element_mut_path`) is reached through `disclose`, which
        // maintains `next <= len`.
        debug_assert!(index <= *len, "element index out of range");
        let levels = pebbles.len();
        // The anchor (index == len) is one step above the top segment;
        // handle it via the cursor path as well.
        // Refresh top-down: each level's base must hold base_j(index).
        for j in (0..levels - 1).rev() {
            let want = (index >> j) << j;
            if positions[j] == want {
                continue;
            }
            // Walk forward from the next-higher pebble that is already
            // correct (level j+1 was fixed in the previous iteration).
            debug_assert!(positions[j + 1] <= want, "upper pebble must not be ahead");
            pebbles[j] = advance(alg, kind, pebbles[j + 1], positions[j + 1], want);
            positions[j] = want;
        }
        // Level 0 now holds base_0(index) = index… unless index == want
        // chain above already; walk the residue (index - positions[0]).
        advance(alg, kind, pebbles[0], positions[0], index)
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
        self.total_len()
    }

    /// True if the chain holds no elements (never: generation enforces ≥ 2).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// The anchor `h_n`, exchanged during bootstrapping.
    #[must_use]
    pub fn anchor(&self) -> Digest {
        self.element(self.total_len())
    }

    /// Index of the anchor.
    #[must_use]
    pub fn anchor_index(&self) -> u64 {
        self.len()
    }

    /// Element at 1-based `index` (0 returns the seed hash `h_0`). Compact
    /// chains recompute forward from the nearest checkpoint they hold at
    /// or below `index` — under a thawed chain's floor its
    /// super-checkpoint, or the seed hash below that (nothing is kept:
    /// only disclosure lowers the floor); dyadic chains
    /// from the nearest pebble at or below `index` (without moving the
    /// pebbles — sequential disclosure through [`HashChain::disclose`] is
    /// what maintains the amortized O(log n) bound).
    ///
    /// Returns [`ChainError::IndexOutOfRange`] when `index` exceeds
    /// [`HashChain::len`] — the checked twin of [`HashChain::element`].
    pub fn try_element(&self, index: u64) -> Result<Digest, ChainError> {
        if index > self.total_len() {
            return Err(ChainError::IndexOutOfRange);
        }
        Ok(match &self.storage {
            Storage::Full(e) => e[index as usize],
            Storage::Compact {
                interval,
                checkpoints,
                floor,
                ..
            } => {
                let k = index / interval;
                if k < *floor {
                    let (from, origin) = self.under_floor(k);
                    advance(self.alg, self.kind, origin, from * interval, index)
                } else {
                    let k = k.min(floor + checkpoints.len() as u64 - 1);
                    let checkpoint = checkpoints[(k - floor) as usize];
                    advance(self.alg, self.kind, checkpoint, k * interval, index)
                }
            }
            Storage::Dyadic {
                pebbles, positions, ..
            } => {
                let (pos, pebble) = pebbles
                    .iter()
                    .zip(positions.iter())
                    .filter(|(_, &p)| p <= index)
                    .map(|(e, &p)| (p, *e))
                    .max_by_key(|&(p, _)| p)
                    .expect("the seed pebble is always at 0");
                advance(self.alg, self.kind, pebble, pos, index)
            }
        })
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

    /// Like [`HashChain::element`], but allowed to advance internal
    /// pebbles (dyadic storage) or lower the checkpoint floor (compact
    /// storage) to keep sequential access cheap.
    fn element_mut_path(&mut self, index: u64) -> Digest {
        match self.storage {
            Storage::Full(_) => self.element(index),
            Storage::Compact { .. } => {
                self.lower_floor(index);
                self.element(index)
            }
            Storage::Dyadic { .. } => self.dyadic_element(index),
        }
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
        let announce = (
            self.next,
            match self.storage {
                // One walk per pair: the announce element is one step
                // above the key, not a second walk from the checkpoint.
                Storage::Compact { .. } => derive(self.alg, self.kind, self.next, &key.1),
                _ => self.element_mut_path(self.next),
            },
        );
        self.next -= 2;
        debug_assert_eq!(role_of(announce.0), Role::Announce);
        debug_assert_eq!(role_of(key.0), Role::Disclose);
        Ok((announce, key))
    }

    /// Bytes this chain's owner actually stores: all elements for full
    /// storage (Table 2's signer strategy), or O(√n) checkpoints for
    /// compact storage.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        match &self.storage {
            Storage::Full(e) => e.len() * self.alg.digest_len(),
            Storage::Compact {
                checkpoints,
                super_checkpoint,
                ..
            } => {
                (checkpoints.len() + usize::from(super_checkpoint.is_some()))
                    * self.alg.digest_len()
                    + 4 * std::mem::size_of::<u64>()
            }
            Storage::Dyadic {
                pebbles, positions, ..
            } => {
                pebbles.len() * self.alg.digest_len()
                    + (positions.len() + 1) * std::mem::size_of::<u64>()
            }
        }
    }

    /// Which storage layout this chain uses (preserved across
    /// freeze/thaw so a thawed chain keeps its owner's memory profile).
    #[must_use]
    pub fn storage_kind(&self) -> StorageKind {
        match &self.storage {
            Storage::Full(_) => StorageKind::Full,
            Storage::Compact { .. } => StorageKind::Compact,
            Storage::Dyadic { .. } => StorageKind::Dyadic,
        }
    }

    /// Freeze this chain to its hibernation record: the seed hash `h_0`
    /// plus the disclosure cursor — everything else a chain holds is a
    /// deterministic function of `h_0`, so [`FrozenChain::thaw`] rebuilds
    /// a chain whose disclosures are byte-identical to this one's — and,
    /// for compact storage, the one checkpoint at or below the cursor
    /// (`h_{⌊next/interval⌋·interval}`), which lets the thaw derive
    /// nothing, and the super-checkpoint under that (a coarser tier,
    /// `⌈√(len/interval)⌉` checkpoints apart), which the next freeze past
    /// a checkpoint boundary derives from.
    #[must_use]
    pub fn freeze(&self) -> FrozenChain {
        let (seed_hash, checkpoint, super_checkpoint) = match &self.storage {
            Storage::Full(e) => (e[0], None, None),
            Storage::Compact {
                seed_hash,
                interval,
                len,
                ..
            } => {
                // Copies, unless the last disclosure left the cursor one
                // segment under the floor: then a walk from the
                // super-checkpoint, and on entering a new super-segment
                // the new one's walk from the seed.
                let c = self.next / interval;
                let number = super_of(*len, *interval, c);
                (
                    *seed_hash,
                    Some(self.element(c * interval)),
                    (number > 0).then(|| self.element(number * interval)),
                )
            }
            // The highest pebble is pinned at position 0 (the seed hash).
            Storage::Dyadic { pebbles, .. } => (*pebbles.last().expect("levels >= 1"), None, None),
        };
        FrozenChain {
            alg: self.alg,
            kind: self.kind,
            storage: self.storage_kind(),
            len: self.total_len(),
            next: self.next,
            seed_hash,
            checkpoint,
            super_checkpoint,
        }
    }
}

/// Storage layout tag carried by a [`FrozenChain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Every element in memory ([`HashChain::from_seed`]).
    Full,
    /// O(√n) checkpoints ([`HashChain::from_seed_compact`]).
    Compact,
    /// O(log n) dyadic pebbles ([`HashChain::from_seed_dyadic`]).
    Dyadic,
}

/// A hibernated hash chain: the seed hash `h_0`, the derivation
/// parameters and the disclosure cursor, plus — for compact storage —
/// the checkpoint under the cursor and the super-checkpoint under that:
/// a few dozen bytes regardless of chain length, against up to
/// `(len + 1) · s_h` live. Thawing a record with a checkpoint hashes
/// nothing; without one (full and dyadic storage, or a chain not yet
/// built) it re-derives the live storage in up to `len` forward hashes.
/// Either way the thawed chain discloses the exact same bytes the frozen
/// one would have.
///
/// Records come from [`HashChain::freeze`] and
/// [`FrozenChain::decode`] alone, and [`FrozenChain::encode_into`] is
/// the one writer of their bytes.
#[derive(Clone, Copy)]
pub struct FrozenChain {
    alg: Algorithm,
    kind: ChainKind,
    storage: StorageKind,
    /// Total elements above the seed.
    len: u64,
    /// Disclosure cursor at freeze time ([`HashChain::remaining`]).
    next: u64,
    /// The seed hash `h_0` — never disclosed on the wire.
    seed_hash: Digest,
    /// Compact storage only: `h_{⌊next/interval⌋·interval}` with
    /// `interval = ⌈√len⌉`, the checkpoint the next disclosures are
    /// derived from. `None` thaws by the full walk from `seed_hash`.
    checkpoint: Option<Digest>,
    /// Compact storage only, beside `checkpoint`: checkpoint number
    /// [`super_of`]`(len, interval, ⌊next/interval⌋)` when that is not
    /// 0 — its position follows from `len` and `next`, so the record
    /// carries the digest alone.
    super_checkpoint: Option<Digest>,
}

/// Record tag after the seed hash: no checkpoint (thaw walks from the
/// seed), the checkpoint, or the checkpoint and the super-checkpoint.
const TAG_WALK: u8 = 0;
const TAG_CHECKPOINT: u8 = 1;
const TAG_SUPER: u8 = 2;

/// Longest chain a record may claim: a hostile record must not drive the
/// O(len) thaw walk arbitrarily far (the engine never builds longer).
const MAX_RECORD_LEN: u64 = 1 << 24;

impl FrozenChain {
    /// The record of an unused chain of `len` elements above `H(seed)`.
    /// `len` is rounded up to the next even number so exchanges always
    /// consume aligned (announce, disclose) pairs.
    fn fresh(
        alg: Algorithm,
        kind: ChainKind,
        storage: StorageKind,
        len: u64,
        seed: &[u8],
    ) -> FrozenChain {
        let len = if len.is_multiple_of(2) { len } else { len + 1 };
        assert!(len >= 2, "chain must hold at least one exchange pair");
        FrozenChain {
            alg,
            kind,
            storage,
            len,
            // The anchor `h_len` is published at bootstrap, so the
            // traversal starts by disclosing `len - 1`.
            next: len - 1,
            seed_hash: alg.hash(seed),
            // The anchor has to be derived anyway: build by the full walk.
            checkpoint: None,
            super_checkpoint: None,
        }
    }

    /// Compact storage: the checkpoint under the cursor the record
    /// carries, if any.
    #[must_use]
    pub fn checkpoint(&self) -> Option<Digest> {
        self.checkpoint
    }

    /// Compact storage: the super-checkpoint the record carries, if any:
    /// with `top = ⌊len/interval⌋` and `s = ⌈√top⌉`, `h_{k·interval}` for
    /// the highest `k` of `top − s`, `top − 2s`, … under the cursor's
    /// checkpoint — `None` when that is the seed hash.
    #[must_use]
    pub fn super_checkpoint(&self) -> Option<Digest> {
        self.super_checkpoint
    }

    /// Append this record's bytes — [`FrozenChain::stored_bytes`] of
    /// them — to `out`: storage layout (1 byte), length and cursor (8
    /// each, big-endian), seed hash, then a tag, 0 for nothing more, 1
    /// for the checkpoint, 2 for the checkpoint and the super-checkpoint.
    /// The algorithm and derivation kind are the caller's to record.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self.storage {
            StorageKind::Full => 0,
            StorageKind::Compact => 1,
            StorageKind::Dyadic => 2,
        });
        out.extend_from_slice(&self.len.to_be_bytes());
        out.extend_from_slice(&self.next.to_be_bytes());
        out.extend_from_slice(self.seed_hash.as_bytes());
        match (self.checkpoint, self.super_checkpoint) {
            (Some(checkpoint), Some(super_checkpoint)) => {
                out.push(TAG_SUPER);
                out.extend_from_slice(checkpoint.as_bytes());
                out.extend_from_slice(super_checkpoint.as_bytes());
            }
            (Some(checkpoint), None) => {
                out.push(TAG_CHECKPOINT);
                out.extend_from_slice(checkpoint.as_bytes());
            }
            (None, _) => out.push(TAG_WALK),
        }
    }

    /// Read one record [`FrozenChain::encode_into`] wrote off the front
    /// of `bytes`, advancing it past the record. Total: `None` on
    /// truncation, an unknown layout or tag, a length or cursor no chain
    /// has, a checkpoint on a layout other than compact, or a
    /// super-checkpoint where the cursor leaves it no position.
    #[must_use]
    pub fn decode(bytes: &mut &[u8], alg: Algorithm, kind: ChainKind) -> Option<FrozenChain> {
        let storage = match take(bytes, 1)?[0] {
            0 => StorageKind::Full,
            1 => StorageKind::Compact,
            2 => StorageKind::Dyadic,
            _ => return None,
        };
        let len = u64::from_be_bytes(take(bytes, 8)?.try_into().ok()?);
        let next = u64::from_be_bytes(take(bytes, 8)?.try_into().ok()?);
        if len < 2 || !len.is_multiple_of(2) || len > MAX_RECORD_LEN || next >= len {
            return None;
        }
        let digest = |bytes: &mut &[u8]| take(bytes, alg.digest_len()).map(Digest::from_slice);
        let seed_hash = digest(bytes)?;
        let compact = storage == StorageKind::Compact;
        let (checkpoint, super_checkpoint) = match take(bytes, 1)?[0] {
            TAG_WALK => (None, None),
            TAG_CHECKPOINT if compact => (Some(digest(bytes)?), None),
            TAG_SUPER if compact => {
                let interval = ceil_sqrt(len);
                if super_of(len, interval, next / interval) == 0 {
                    return None;
                }
                (Some(digest(bytes)?), Some(digest(bytes)?))
            }
            _ => return None,
        };
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

    /// Forward hashes a rebuild costs: the whole chain (the same work as
    /// generating it), except that dyadic pebbles only need the elements
    /// up to the frozen cursor — an exhausted chain parks them at the seed
    /// — and a compact chain frozen with its checkpoint needs none.
    fn rebuild_steps(&self) -> u64 {
        match self.storage {
            StorageKind::Compact if self.checkpoint.is_some() => 0,
            StorageKind::Full | StorageKind::Compact => self.len,
            StorageKind::Dyadic => self.next.min(self.len - 1),
        }
    }

    /// Rebuild the live chain: full elements, compact checkpoints (the
    /// frozen one alone when the record carries it), or dyadic pebbles
    /// positioned at the frozen cursor, re-derived in
    /// [`FrozenChain::rebuild_steps`] forward hashes.
    #[must_use]
    pub fn thaw(&self) -> HashChain {
        let [chain] = rebuild([self]);
        chain
    }

    /// Bytes this record occupies (the hibernation footprint): exactly
    /// what [`FrozenChain::encode_into`] writes.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        let digests = 1
            + usize::from(self.checkpoint.is_some())
            + usize::from(self.super_checkpoint.is_some());
        // Layout and tag bytes, length and cursor.
        2 + 2 * std::mem::size_of::<u64>() + digests * self.alg.digest_len()
    }

    /// Thaw two chains in one two-lane rebuild — the wake path of a
    /// hibernated association rehydrates its signature and
    /// acknowledgment chains together, and the second lane hides the
    /// per-step latency a sequential rebuild pays twice. Byte-identical to
    /// two [`FrozenChain::thaw`] calls (and the same hash count) for every
    /// storage layout, length and cursor; only chains of different
    /// algorithms fall back to exactly that.
    #[must_use]
    pub fn thaw_pair(a: &FrozenChain, b: &FrozenChain) -> (HashChain, HashChain) {
        if a.alg != b.alg {
            return (a.thaw(), b.thaw());
        }
        let [chain_a, chain_b] = rebuild([a, b]);
        (chain_a, chain_b)
    }
}

/// Rebuild `N` chains of one algorithm in lockstep: the lanes walk together
/// as far as all of them go, then the longer ones finish alone, so each
/// lane costs exactly its own [`FrozenChain::rebuild_steps`].
fn rebuild<const N: usize>(lanes: [&FrozenChain; N]) -> [HashChain; N] {
    let alg = lanes[0].alg;
    debug_assert!(lanes.iter().all(|f| f.alg == alg));
    let kinds = lanes.map(|f| f.kind);
    let mut storages = lanes.map(Storage::seeded);
    let shared = lanes.iter().map(|f| f.rebuild_steps()).min().unwrap_or(0);
    let seeds = lanes.map(|f| f.seed_hash);
    let at_shared = walk(alg, kinds, seeds, 1..=shared, |i, els| {
        for (storage, el) in storages.iter_mut().zip(els) {
            storage.absorb(i, el);
        }
    });
    for l in 0..N {
        let rest = shared + 1..=lanes[l].rebuild_steps();
        walk(alg, [kinds[l]], [at_shared[l]], rest, |i, [el]| {
            storages[l].absorb(i, el);
        });
    }
    let mut storages = storages.into_iter();
    lanes.map(|f| HashChain {
        alg,
        kind: f.kind,
        storage: storages.next().expect("one storage per lane"),
        next: f.next,
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

/// `⌈√n⌉`: a compact chain's checkpoint interval for `n = len`, and its
/// super-checkpoint spacing for `n` = the number of checkpoints.
fn ceil_sqrt(n: u64) -> u64 {
    (n as f64).sqrt().ceil() as u64
}

/// Number of the super-checkpoint that serves a compact chain whose
/// cursor lies over checkpoint `c`: the coarser tier sits every
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
    fn thaw_pair_matches_independent_thaws() {
        // Same algorithm and length, full storage, distinct kinds and
        // cursors.
        let a = HashChain::from_seed(Algorithm::Sha256, ChainKind::RoleBoundSignature, 64, b"a");
        let mut b = HashChain::from_seed(Algorithm::Sha256, ChainKind::RoleBoundAck, 64, b"b");
        b.disclose().unwrap();
        let (ta, tb) = FrozenChain::thaw_pair(&a.freeze(), &b.freeze());
        for i in 0..=64 {
            assert_eq!(ta.element(i), a.element(i), "sig lane element {i}");
            assert_eq!(tb.element(i), b.element(i), "ack lane element {i}");
        }
        assert_eq!(ta.remaining(), a.remaining());
        assert_eq!(tb.remaining(), b.remaining(), "cursor survives the pair");

        // Mixed layouts pair up too, each lane keeping its own.
        let c =
            HashChain::from_seed_dyadic(Algorithm::Sha256, ChainKind::RoleBoundSignature, 64, b"c");
        let (tc, td) = FrozenChain::thaw_pair(&c.freeze(), &b.freeze());
        assert_eq!(tc.anchor(), c.anchor());
        assert_eq!(tc.storage_kind(), StorageKind::Dyadic);
        assert_eq!(td.element(5), b.element(5));
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
            HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::Plain, 8, b"x"),
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
            let batch = HashChain::from_seeds_batch(alg, 12, StorageKind::Full, &specs);
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
}

#[cfg(test)]
mod dyadic_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dyadic_equals_full_for_every_element() {
        for len in [4u64, 16, 30, 128, 100] {
            let full =
                HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, b"d");
            let dy = HashChain::from_seed_dyadic(
                Algorithm::Sha1,
                ChainKind::RoleBoundSignature,
                len,
                b"d",
            );
            assert_eq!(full.anchor(), dy.anchor(), "len={len}");
            for i in 0..=full.len() {
                assert_eq!(full.element(i), dy.element(i), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn dyadic_full_traversal_matches_and_interoperates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut dy = HashChain::generate_dyadic(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            256,
            &mut rng,
        );
        let mut verifier = ChainVerifier::new(
            Algorithm::Sha1,
            ChainKind::RoleBoundSignature,
            dy.anchor(),
            dy.anchor_index(),
        );
        while let Ok(((ai, ae), (ki, ke))) = dy.disclose_pair() {
            verifier.accept_role(ai, &ae, Role::Announce).unwrap();
            verifier.accept_role(ki, &ke, Role::Disclose).unwrap();
        }
        assert_eq!(dy.remaining_pairs(), 0);
    }

    #[test]
    fn dyadic_memory_is_logarithmic() {
        let len = 4096u64;
        let full = HashChain::from_seed(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        let sqrt = HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        let dy = HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::Plain, len, b"m");
        // log2(4096)+1 = 13 pebbles vs 65 sqrt checkpoints vs 4097 elements.
        assert!(
            dy.stored_bytes() < sqrt.stored_bytes() / 3,
            "{} vs {}",
            dy.stored_bytes(),
            sqrt.stored_bytes()
        );
        assert!(sqrt.stored_bytes() < full.stored_bytes() / 10);
        assert!(dy.stored_bytes() <= 14 * 20 + 15 * 8);
    }

    #[test]
    fn freeze_thaw_dyadic_mid_traversal_is_identical() {
        let mut live =
            HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::RoleBoundSignature, 64, b"z");
        for _ in 0..7 {
            live.disclose_pair().unwrap();
        }
        let mut thawed = live.freeze().thaw();
        assert_eq!(thawed.remaining(), live.remaining());
        while let Ok((a, k)) = live.disclose_pair() {
            assert_eq!(thawed.disclose_pair().unwrap(), (a, k));
        }
        assert!(thawed.disclose_pair().is_err());
    }

    #[test]
    fn dyadic_traversal_cost_is_n_log_n_total() {
        let len = 1024u64;
        let mut dy = HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::Plain, len, b"c");
        let scope = crate::counting::Scope::start();
        while dy.disclose().is_ok() {}
        let c = scope.finish();
        // Amortized ≤ ~2·log2(n) hashes per disclosure.
        let bound = 2 * len * 11; // 2 n log2(n) with slack
        assert!(c.invocations <= bound, "{} > {bound}", c.invocations);
        // …and materially cheaper than naive recompute-from-seed (O(n²)/2).
        assert!(c.invocations < len * len / 8);
    }
}

#[cfg(test)]
mod freeze_tests {
    use super::*;

    fn chains(len: u64, seed: &[u8]) -> [HashChain; 3] {
        [
            HashChain::from_seed(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, seed),
            HashChain::from_seed_compact(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, seed),
            HashChain::from_seed_dyadic(Algorithm::Sha1, ChainKind::RoleBoundSignature, len, seed),
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
            // Layout, length, cursor, tag; the seed hash, and on the √n
            // layout the checkpoint and the super-checkpoint.
            let digests = if frozen.storage == StorageKind::Compact {
                3
            } else {
                1
            };
            assert_eq!(frozen.stored_bytes(), 18 + digests * 20);
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
            let mut live =
                HashChain::from_seed_dyadic(alg, ChainKind::RoleBoundAck, 64, b"interop");
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
