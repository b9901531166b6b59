//! Merkle trees for ALPHA-M (§3.3.2, Fig. 4) and the payload-capacity
//! arithmetic behind Figures 5 and 6.
//!
//! ALPHA-M covers `n` buffered messages with a single pre-signature: the
//! signer builds a binary hash tree over the message hashes
//! `b_j = H(m_j)` and announces only the *keyed root*
//! `r = H(h^Ss_{i-1} | b_0 | b_1)` in the S1 packet (the undisclosed chain
//! element keys the root, making it a MAC). Each S2 packet then carries one
//! message plus its *authentication path* `{Bc}` — the sibling of every node
//! on the leaf-to-root path — so every S2 is independently verifiable in
//! `⌈log2 n⌉` fixed-length hashes regardless of delivery order or loss.
//!
//! The keyed combine replaces the tree's top node exactly as drawn in the
//! paper's Fig. 4, which keeps the verifier's per-packet hash count at
//! `1* + log2(n)` as stated in Table 1 (one message hash plus the path).

use crate::backend::{self, Padded};
use crate::{Algorithm, Digest};

/// Maximum length of a Merkle authentication path, and hence the capacity
/// of [`DigestPath`]. A 64-level path covers 2⁶⁴ leaves — far beyond the
/// wire-format leaf bound — so real paths always fit.
pub const MAX_PATH: usize = 64;

/// A fixed-capacity, stack-allocated Merkle authentication path — the
/// no-allocation replacement for `Vec<Digest>` on the S2 hot path, used
/// both when parsing a received path out of wire bytes and when emitting
/// one from a sender-side tree via [`MerkleTree::auth_path_into`].
#[derive(Debug, Clone, Copy)]
pub struct DigestPath {
    len: usize,
    buf: [Digest; MAX_PATH],
}

impl DigestPath {
    /// An empty path whose slots are zero digests of `alg`.
    #[must_use]
    pub fn empty(alg: Algorithm) -> DigestPath {
        DigestPath {
            len: 0,
            buf: [Digest::zero(alg); MAX_PATH],
        }
    }

    /// Append a sibling digest.
    ///
    /// # Panics
    /// Panics if the path already holds [`MAX_PATH`] entries.
    pub fn push(&mut self, d: Digest) {
        assert!(self.len < MAX_PATH, "authentication path overflow");
        self.buf[self.len] = d;
        self.len += 1;
    }

    /// Reset to empty without touching the buffer, so a single path can be
    /// reused across the S2 packets of a bundle.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Number of digests held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the path holds no digests (single-leaf trees).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The digests as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Digest] {
        &self.buf[..self.len]
    }
}

impl std::ops::Deref for DigestPath {
    type Target = [Digest];
    fn deref(&self) -> &[Digest] {
        self.as_slice()
    }
}

/// A binary Merkle tree with all levels retained.
///
/// ```
/// use alpha_crypto::merkle::{self, MerkleTree};
/// use alpha_crypto::Algorithm;
///
/// let alg = Algorithm::Sha1;
/// let messages = [b"block 0".as_slice(), b"block 1", b"block 2"];
/// let tree = MerkleTree::from_messages(alg, &messages);
///
/// // The ALPHA-M pre-signature: the root keyed with the undisclosed
/// // chain element.
/// let key = alg.hash(b"chain element");
/// let root = tree.keyed_root(&key);
///
/// // Any message verifies independently from its authentication path.
/// let leaf = alg.hash(messages[2]);
/// assert!(merkle::verify_keyed(alg, &key, &leaf, 2, &tree.auth_path(2), &root));
/// ```
///
/// Leaves that do not fill a power of two are padded with the all-zero
/// digest; padding leaves can never be proven (the signer never emits an S2
/// for them), so the padding does not weaken the construction.
#[derive(Clone)]
pub struct MerkleTree {
    alg: Algorithm,
    /// `levels[0]` are the (padded) leaves; `levels.last()` is a single
    /// node: the unkeyed root.
    levels: Vec<Vec<Digest>>,
    real_leaves: usize,
}

impl MerkleTree {
    /// Build a tree over precomputed leaf digests (`b_j = H(m_j)`).
    ///
    /// Panics on an empty leaf set: a tree over nothing has no meaning in
    /// the protocol (the signer never announces an empty bundle).
    #[must_use]
    pub fn build(alg: Algorithm, leaves: &[Digest]) -> MerkleTree {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let padded = leaves.len().next_power_of_two();
        let mut level0: Vec<Digest> = leaves.to_vec();
        level0.resize(padded, Digest::zero(alg));
        let mut levels = vec![level0];
        while levels.last().expect("non-empty").len() > 1 {
            // Sibling pairs are independent, so a whole level hashes in
            // lane-parallel sweeps (byte-identical to the scalar loop).
            let prev = levels.last().expect("non-empty");
            let mut next = vec![Digest::zero(alg); prev.len() / 2];
            for (pairs, out) in prev
                .chunks(2 * backend::LANES)
                .zip(next.chunks_mut(backend::LANES))
            {
                let mut nodes = [Padded::EMPTY; backend::LANES];
                for (node, pair) in nodes.iter_mut().zip(pairs.chunks_exact(2)) {
                    *node = Padded::new(&[pair[0].as_bytes(), pair[1].as_bytes()]);
                }
                backend::hash_lanes_with(backend::active(), alg, &nodes[..out.len()], out);
            }
            levels.push(next);
        }
        MerkleTree {
            alg,
            levels,
            real_leaves: leaves.len(),
        }
    }

    /// Build a tree directly over message payloads (hashes each first).
    #[must_use]
    pub fn from_messages<M: AsRef<[u8]>>(alg: Algorithm, messages: &[M]) -> MerkleTree {
        let inputs: Vec<&[u8]> = messages.iter().map(AsRef::as_ref).collect();
        let mut leaves = vec![Digest::zero(alg); inputs.len()];
        backend::digest_batch(alg, &inputs, &mut leaves);
        MerkleTree::build(alg, &leaves)
    }

    /// Number of real (non-padding) leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.real_leaves
    }

    /// Tree depth: `⌈log2(padded leaves)⌉`; 0 for a single-leaf tree.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// The unkeyed root (top node).
    #[must_use]
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// The ALPHA-M pre-signature: the root keyed with the signer's next
    /// undisclosed chain element, `H(key | b_0 | b_1)` per Fig. 4 (or
    /// `H(key | leaf)` for a single-leaf tree).
    #[must_use]
    pub fn keyed_root(&self, key: &Digest) -> Digest {
        if self.depth() == 0 {
            hash_node(self.alg, &[key.as_bytes(), self.levels[0][0].as_bytes()])
        } else {
            let top_children = &self.levels[self.levels.len() - 2];
            hash_node(
                self.alg,
                &[
                    key.as_bytes(),
                    top_children[0].as_bytes(),
                    top_children[1].as_bytes(),
                ],
            )
        }
    }

    /// The authentication path `{Bc}` for leaf `j`: the sibling at every
    /// level from the leaves up to (and including) the children of the
    /// root. Length equals [`MerkleTree::depth`].
    #[must_use]
    pub fn auth_path(&self, j: usize) -> Vec<Digest> {
        assert!(j < self.real_leaves, "leaf index out of range");
        let mut path = Vec::with_capacity(self.depth());
        let mut idx = j;
        for level in &self.levels[..self.levels.len() - 1] {
            path.push(level[idx ^ 1]);
            idx >>= 1;
        }
        path
    }

    /// Like [`MerkleTree::auth_path`], but writes into a caller-owned
    /// [`DigestPath`] so the per-S2 send path allocates nothing: the sender
    /// clears and refills one stack path per packet of a bundle.
    pub fn auth_path_into(&self, j: usize, out: &mut DigestPath) {
        assert!(j < self.real_leaves, "leaf index out of range");
        out.clear();
        let mut idx = j;
        for level in &self.levels[..self.levels.len() - 1] {
            out.push(level[idx ^ 1]);
            idx >>= 1;
        }
    }

    /// Leaf digest at index `j` (real leaves only).
    #[must_use]
    pub fn leaf(&self, j: usize) -> Digest {
        assert!(j < self.real_leaves, "leaf index out of range");
        self.levels[0][j]
    }
}

/// Recompute the unkeyed root from a leaf and its authentication path.
#[must_use]
pub fn root_from_path(alg: Algorithm, leaf: &Digest, j: usize, path: &[Digest]) -> Digest {
    let mut cur = *leaf;
    let mut idx = j;
    for sib in path {
        cur = combine(alg, idx, &cur, sib);
        idx >>= 1;
    }
    cur
}

/// Verify leaf `j` against an unkeyed root.
#[must_use]
pub fn verify_path(
    alg: Algorithm,
    leaf: &Digest,
    j: usize,
    path: &[Digest],
    root: &Digest,
) -> bool {
    crate::ct_eq(
        root_from_path(alg, leaf, j, path).as_bytes(),
        root.as_bytes(),
    )
}

/// Recompute the *keyed* root (the ALPHA-M pre-signature) from a leaf, its
/// path, and the now-disclosed chain element. This is the verifier/relay
/// computation for each S2 packet: `⌈log2 n⌉` hashes over fixed-size input.
#[must_use]
pub fn keyed_root_from_path(
    alg: Algorithm,
    key: &Digest,
    leaf: &Digest,
    j: usize,
    path: &[Digest],
) -> Digest {
    if path.is_empty() {
        return hash_node(alg, &[key.as_bytes(), leaf.as_bytes()]);
    }
    let mut cur = *leaf;
    let mut idx = j;
    for sib in &path[..path.len() - 1] {
        cur = combine(alg, idx, &cur, sib);
        idx >>= 1;
    }
    let sib = &path[path.len() - 1];
    let (left, right) = ordered(idx, &cur, sib);
    hash_node(alg, &[key.as_bytes(), left.as_bytes(), right.as_bytes()])
}

/// A borrowed authentication path: either [`Digest`]s, or the packed
/// bytes a received S2 carries its siblings in (`digest_len` bytes
/// each), read in place so verification copies no path.
#[derive(Debug, Clone, Copy)]
pub struct Siblings<'a>(SiblingsRepr<'a>);

#[derive(Debug, Clone, Copy)]
enum SiblingsRepr<'a> {
    Digests(&'a [Digest]),
    Packed { bytes: &'a [u8], digest_len: usize },
}

impl<'a> Siblings<'a> {
    /// Siblings packed back to back, `alg.digest_len()` bytes each.
    ///
    /// # Panics
    /// Panics if `bytes` is not a whole number of digests.
    #[must_use]
    pub fn packed(alg: Algorithm, bytes: &'a [u8]) -> Siblings<'a> {
        let digest_len = alg.digest_len();
        assert_eq!(bytes.len() % digest_len, 0, "partial sibling digest");
        Siblings(SiblingsRepr::Packed { bytes, digest_len })
    }

    /// Number of siblings (the path's depth).
    #[must_use]
    pub fn len(&self) -> usize {
        match self.0 {
            SiblingsRepr::Digests(d) => d.len(),
            SiblingsRepr::Packed { bytes, digest_len } => bytes.len() / digest_len,
        }
    }

    /// True for the empty path of a single-leaf tree.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sibling at `level` (0 = the leaf's), as bytes.
    ///
    /// # Panics
    /// Panics if `level >= self.len()`.
    #[must_use]
    pub fn get(&self, level: usize) -> &'a [u8] {
        match self.0 {
            SiblingsRepr::Digests(d) => d[level].as_bytes(),
            SiblingsRepr::Packed { bytes, digest_len } => {
                &bytes[level * digest_len..(level + 1) * digest_len]
            }
        }
    }
}

impl<'a> From<&'a [Digest]> for Siblings<'a> {
    fn from(path: &'a [Digest]) -> Siblings<'a> {
        Siblings(SiblingsRepr::Digests(path))
    }
}

/// One S2's share of [`keyed_roots`]: its message, where the message
/// sits in its tree, the path up and the disclosed key.
#[derive(Debug, Clone, Copy)]
pub struct KeyedLeaf<'a> {
    /// The disclosed chain element keying the root.
    pub key: &'a Digest,
    /// The message; its hash is the leaf.
    pub message: &'a [u8],
    /// Leaf index within its tree.
    pub index: usize,
    /// Authentication path, leaf level first.
    pub path: Siblings<'a>,
}

/// Items per sweep of [`keyed_roots`]: one bundle's worth, so every
/// working array lives on the stack.
const KEYED_BATCH: usize = 16;

/// The keyed root of every item, `out[k]` byte-identical to
/// [`keyed_root_from_path`]`(alg, items[k].key, &alg.hash(items[k].message),
/// items[k].index, path)` — the verifier and relay computation for a run
/// of S2s, batched.
///
/// Leaves are hashed through [`backend::digest_batch`], then the paths
/// are walked level by level over each chunk's *distinct* nodes. Items
/// whose walk so far is byte-identical — one node at one position, one
/// depth, one key — form a group; at each level a member hashes what
/// its group's first member hashes unless its sibling bytes differ
/// (one fixed-width compare), and each group's first member matches its
/// input against the level's inputs so far before it adds its own. So
/// a level costs a compare per item and one pre-padded compression per
/// distinct input (`left | right`, or `key | left | right` at the
/// top), and a result is reused only for byte-equal inputs. Reuse
/// therefore never changes a result — equal inputs have equal digests —
/// and a forged item, whose bytes differ somewhere, is computed on its
/// own bytes from that level up. Hash counts ([`crate::counting`])
/// record only what is computed: one leaf per item plus one node per
/// distinct input per level, so 16 consecutive leaves of a 32-leaf tree
/// cost 16 leaf, 15 node and 1 keyed-root hashes instead of 16 × 6.
///
/// # Panics
/// Panics if `items.len() != out.len()`.
pub fn keyed_roots(alg: Algorithm, items: &[KeyedLeaf<'_>], out: &mut [Digest]) {
    assert_eq!(items.len(), out.len(), "keyed_roots length mismatch");
    for (items, out) in items.chunks(KEYED_BATCH).zip(out.chunks_mut(KEYED_BATCH)) {
        keyed_roots_chunk(alg, items, out);
    }
}

/// No item, group or job.
const NONE: usize = usize::MAX;

/// [`keyed_roots`] for at most [`KEYED_BATCH`] items, each root to
/// `out`.
///
/// The walk runs on groups: items whose computation so far is
/// byte-identical — one node at one position, one depth, one key. A
/// group is named by its first item and its members are chained through
/// `next`. Per level each group's first member finds its input among the
/// level's inputs (or adds it), each other member compares its sibling
/// with the first's and splits off into a group of its own where they
/// differ, and after the hashing, groups that hashed one input into one
/// position, at one depth under one key, merge.
fn keyed_roots_chunk(alg: Algorithm, items: &[KeyedLeaf<'_>], out: &mut [Digest]) {
    let n = items.len();
    let mut messages: [&[u8]; KEYED_BATCH] = [&[]; KEYED_BATCH];
    let mut depth = [0usize; KEYED_BATCH];
    for (k, item) in items.iter().enumerate() {
        messages[k] = item.message;
        depth[k] = item.path.len();
    }
    // Every item starts as a group of its own, its node its leaf.
    let mut node = [Digest::zero(alg); KEYED_BATCH];
    backend::digest_batch(alg, &messages[..n], &mut node[..n]);
    let mut pos = [0usize; KEYED_BATCH];
    let mut tail = [0usize; KEYED_BATCH];
    let mut next = [NONE; KEYED_BATCH];
    let mut groups = [0usize; KEYED_BATCH];
    for k in 0..n {
        pos[k] = items[k].index;
        tail[k] = k;
        groups[k] = k;
    }
    let mut live = n;
    // The level's distinct inputs, pre-padded, each with a fingerprint
    // a byte-equal input shares, and their digests.
    let mut inputs = [Padded::EMPTY; KEYED_BATCH];
    let mut prints = [0u64; KEYED_BATCH];
    let mut digests = [Digest::zero(alg); KEYED_BATCH];
    let mut job = [NONE; KEYED_BATCH];
    let mut level = 0;
    while live > 0 {
        let mut jobs = 0;
        let mut i = 0;
        // Splits append groups to the list, which this pass then visits.
        while i < live {
            let g = groups[i];
            i += 1;
            let d = depth[g];
            let sib = if d == 0 {
                &[][..]
            } else {
                items[g].path.get(level)
            };
            // Members whose sibling differs leave for groups of their own.
            let (mut prev, mut m) = (g, next[g]);
            while m != NONE {
                let after = next[m];
                if d != 0 && !same_digest(items[m].path.get(level), sib) {
                    next[prev] = after;
                    if tail[g] == m {
                        tail[g] = prev;
                    }
                    (node[m], pos[m], depth[m]) = (node[g], pos[g], d);
                    next[m] = NONE;
                    tail[m] = m;
                    groups[live] = m;
                    live += 1;
                } else {
                    prev = m;
                }
                m = after;
            }
            let own = node[g].as_bytes();
            let key = if level + 1 >= d {
                items[g].key.as_bytes()
            } else {
                &[]
            };
            // A single-leaf tree's `key | leaf` has no sibling to order.
            let (left, right) = if d == 0 || pos[g] & 1 == 0 {
                (own, sib)
            } else {
                (sib, own)
            };
            let parts = [key, left, right];
            let print = word(left) ^ word(right).rotate_left(17) ^ word(key).rotate_left(41);
            let found = prints[..jobs]
                .iter()
                .zip(&inputs[..jobs])
                .position(|(&p, input)| p == print && same_bytes(input, &parts));
            job[g] = found.unwrap_or_else(|| {
                inputs[jobs].fill(&parts);
                prints[jobs] = print;
                jobs += 1;
                jobs - 1
            });
        }
        backend::hash_lanes_with(
            backend::active(),
            alg,
            &inputs[..jobs],
            &mut digests[..jobs],
        );
        // A group at its top is done; the others move up a level and
        // merge into the first group that hashed the same input into the
        // same position at the same depth under the same key.
        let mut owner = [NONE; KEYED_BATCH];
        let mut kept = 0;
        for i in 0..live {
            let g = groups[i];
            let digest = digests[job[g]];
            if level + 1 >= depth[g].max(1) {
                let mut m = g;
                while m != NONE {
                    out[m] = digest;
                    m = next[m];
                }
                continue;
            }
            node[g] = digest;
            pos[g] >>= 1;
            let o = owner[job[g]];
            if o != NONE
                && pos[o] == pos[g]
                && depth[o] == depth[g]
                && same_digest(items[o].key.as_bytes(), items[g].key.as_bytes())
            {
                next[tail[o]] = g;
                tail[o] = tail[g];
                continue;
            }
            if o == NONE {
                owner[job[g]] = g;
            }
            groups[kept] = g;
            kept += 1;
        }
        live = kept;
        level += 1;
    }
}

/// Whether two digests are byte-equal: two overlapping 16-byte words
/// for any digest of 16 to 32 bytes, so one fixed-width compare.
fn same_digest(a: &[u8], b: &[u8]) -> bool {
    let len = a.len();
    if len != b.len() || !(16..=32).contains(&len) {
        return a == b;
    }
    let word = |x: &[u8], at: usize| {
        x[at..at + 16]
            .first_chunk::<16>()
            .map(|w| u128::from_ne_bytes(*w))
    };
    word(a, 0) == word(b, 0) && word(a, len - 16) == word(b, len - 16)
}

/// The leading word of a digest (0 for an empty part), for a
/// fingerprint byte-equal node inputs share.
fn word(part: &[u8]) -> u64 {
    part.first_chunk::<8>()
        .map_or(0, |w| u64::from_ne_bytes(*w))
}

/// Whether `input`'s bytes are the concatenation of `parts`.
fn same_bytes(input: &Padded, parts: &[&[u8]]) -> bool {
    let mut rest = input.input();
    for part in parts {
        match rest.split_at_checked(part.len()) {
            Some((head, tail)) if same_digest(head, part) => rest = tail,
            _ => return false,
        }
    }
    rest.is_empty()
}

/// Verify an ALPHA-M S2: message-leaf `j` against the pre-signature root.
#[must_use]
pub fn verify_keyed(
    alg: Algorithm,
    key: &Digest,
    leaf: &Digest,
    j: usize,
    path: &[Digest],
    keyed_root: &Digest,
) -> bool {
    crate::ct_eq(
        keyed_root_from_path(alg, key, leaf, j, path).as_bytes(),
        keyed_root.as_bytes(),
    )
}

fn ordered<'a>(idx: usize, cur: &'a Digest, sib: &'a Digest) -> (&'a Digest, &'a Digest) {
    if idx.is_multiple_of(2) {
        (cur, sib)
    } else {
        (sib, cur)
    }
}

fn combine(alg: Algorithm, idx: usize, cur: &Digest, sib: &Digest) -> Digest {
    let (l, r) = ordered(idx, cur, sib);
    hash_node(alg, &[l.as_bytes(), r.as_bytes()])
}

/// One Merkle node — `left | right`, or `key | left | right` at a keyed
/// top (`key | leaf` for a single-leaf tree) — given as its parts,
/// hashed pre-padded ([`backend::hash_lanes_with`]), as every node is.
fn hash_node(alg: Algorithm, parts: &[&[u8]]) -> Digest {
    let mut out = [Digest::zero(alg)];
    backend::hash_lanes_with(backend::active(), alg, &[Padded::new(parts)], &mut out);
    out[0]
}

/// Equation (1) of the paper: total payload coverable by one pre-signature
/// when `n` S2 packets of `s_packet` payload bytes each must carry one
/// disclosed chain element plus a `⌈log2 n⌉`-entry authentication path of
/// `s_h`-byte hashes:
///
/// ```text
/// s_total = n · (s_packet − s_h(⌈log2 n⌉ + 1))
/// ```
///
/// Returns 0 when the signature data alone exceeds the packet (the regime
/// where Fig. 5's curves terminate).
#[must_use]
pub fn payload_capacity(n: u64, s_packet: u64, s_h: u64) -> u64 {
    let sig = s_h * (log2_ceil(n) + 1);
    if sig >= s_packet {
        0
    } else {
        n * (s_packet - sig)
    }
}

/// Per-packet signature overhead ratio plotted in Fig. 6: bytes transferred
/// per signed payload byte, `s_packet / (s_packet − s_h(⌈log2 n⌉+1))`.
/// Returns `None` where no payload fits.
#[must_use]
pub fn overhead_ratio(n: u64, s_packet: u64, s_h: u64) -> Option<f64> {
    let sig = s_h * (log2_ceil(n) + 1);
    if sig >= s_packet {
        None
    } else {
        Some(s_packet as f64 / (s_packet - sig) as f64)
    }
}

/// `⌈log2 n⌉` with `log2_ceil(1) == 0`.
#[must_use]
pub fn log2_ceil(n: u64) -> u64 {
    assert!(n > 0, "log2 of zero");
    64 - (n - 1).leading_zeros() as u64
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index==leaf number is the point
mod tests {
    use super::*;

    fn leaves(alg: Algorithm, n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| alg.hash(format!("message {i}").as_bytes()))
            .collect()
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn single_leaf_tree() {
        let l = leaves(Algorithm::Sha1, 1);
        let t = MerkleTree::build(Algorithm::Sha1, &l);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.root(), l[0]);
        assert!(t.auth_path(0).is_empty());
        let key = Algorithm::Sha1.hash(b"key");
        assert!(verify_keyed(
            Algorithm::Sha1,
            &key,
            &l[0],
            0,
            &[],
            &t.keyed_root(&key)
        ));
    }

    #[test]
    fn eight_leaf_paths_verify() {
        for alg in Algorithm::ALL {
            let l = leaves(alg, 8);
            let t = MerkleTree::build(alg, &l);
            assert_eq!(t.depth(), 3);
            let root = t.root();
            for j in 0..8 {
                let path = t.auth_path(j);
                assert_eq!(path.len(), 3);
                assert!(verify_path(alg, &l[j], j, &path, &root));
                // Wrong index fails.
                assert!(!verify_path(alg, &l[j], (j + 1) % 8, &path, &root));
            }
        }
    }

    #[test]
    fn keyed_root_matches_paper_structure() {
        // r = H(key | b0 | b1) where b0,b1 are the root's children (Fig. 4).
        let alg = Algorithm::Sha1;
        let l = leaves(alg, 4);
        let t = MerkleTree::build(alg, &l);
        let key = alg.hash(b"chain element");
        let b0 = alg.hash_parts(&[l[0].as_bytes(), l[1].as_bytes()]);
        let b1 = alg.hash_parts(&[l[2].as_bytes(), l[3].as_bytes()]);
        let expect = alg.hash_parts(&[key.as_bytes(), b0.as_bytes(), b1.as_bytes()]);
        assert_eq!(t.keyed_root(&key), expect);
    }

    #[test]
    fn keyed_verification_and_forgery() {
        let alg = Algorithm::Sha256;
        let l = leaves(alg, 8);
        let t = MerkleTree::build(alg, &l);
        let key = alg.hash(b"undisclosed");
        let root = t.keyed_root(&key);
        for j in 0..8 {
            assert!(verify_keyed(alg, &key, &l[j], j, &t.auth_path(j), &root));
        }
        // Tampered leaf fails.
        let bad = alg.hash(b"tampered message");
        assert!(!verify_keyed(alg, &key, &bad, 3, &t.auth_path(3), &root));
        // Wrong key fails.
        let wrong_key = alg.hash(b"guessed");
        assert!(!verify_keyed(
            alg,
            &wrong_key,
            &l[3],
            3,
            &t.auth_path(3),
            &root
        ));
    }

    #[test]
    fn non_power_of_two_padding() {
        let alg = Algorithm::Sha1;
        let l = leaves(alg, 5);
        let t = MerkleTree::build(alg, &l);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.leaf_count(), 5);
        let key = alg.hash(b"k");
        let root = t.keyed_root(&key);
        for j in 0..5 {
            assert!(verify_keyed(alg, &key, &l[j], j, &t.auth_path(j), &root));
        }
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn padding_leaf_not_provable() {
        let t = MerkleTree::build(Algorithm::Sha1, &leaves(Algorithm::Sha1, 5));
        let _ = t.auth_path(5); // padding leaf: refused
    }

    #[test]
    fn auth_path_into_matches_auth_path() {
        for alg in Algorithm::ALL {
            for n in [1usize, 2, 5, 8, 33] {
                let t = MerkleTree::build(alg, &leaves(alg, n));
                let mut p = DigestPath::empty(alg);
                for j in 0..n {
                    t.auth_path_into(j, &mut p);
                    assert_eq!(p.as_slice(), t.auth_path(j).as_slice(), "n={n} j={j}");
                }
            }
        }
    }

    #[test]
    fn keyed_roots_hash_each_shared_node_once() {
        let alg = Algorithm::Sha1;
        let msgs: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 1024]).collect();
        let t = MerkleTree::from_messages(alg, &msgs);
        let key = alg.hash(b"disclosed");
        let root = t.keyed_root(&key);
        let paths: Vec<Vec<Digest>> = (0..32).map(|j| t.auth_path(j)).collect();
        let items: Vec<KeyedLeaf<'_>> = (0..32)
            .map(|j| KeyedLeaf {
                key: &key,
                message: &msgs[j],
                index: j,
                path: Siblings::from(paths[j].as_slice()),
            })
            .collect();
        // One bundle: half the tree, 16 leaf + 15 node + 1 keyed-root
        // hashes, not 16 × (1 + log2 32).
        for bundle in items.chunks(16) {
            let mut out = vec![Digest::zero(alg); 16];
            let scope = crate::counting::Scope::start();
            keyed_roots(alg, bundle, &mut out);
            assert_eq!(scope.finish().invocations, 16 + 15 + 1);
            assert!(out.iter().all(|r| *r == root));
        }
        // One S2 alone: Table 1's 1 + log2 n.
        let mut one = [Digest::zero(alg)];
        let scope = crate::counting::Scope::start();
        keyed_roots(alg, &items[7..8], &mut one);
        assert_eq!(scope.finish().invocations, 1 + 5);
        assert_eq!(one[0], root);
    }

    #[test]
    fn digest_path_push_clear() {
        let alg = Algorithm::Sha1;
        let mut p = DigestPath::empty(alg);
        assert!(p.is_empty());
        p.push(alg.hash(b"a"));
        p.push(alg.hash(b"b"));
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], alg.hash(b"a"));
        p.clear();
        assert!(p.is_empty());
        assert!(p.as_slice().is_empty());
    }

    #[test]
    fn from_messages_equals_manual() {
        let alg = Algorithm::Sha1;
        let msgs = [
            b"alpha".as_slice(),
            b"bravo".as_slice(),
            b"charlie".as_slice(),
        ];
        let t1 = MerkleTree::from_messages(alg, &msgs);
        let manual: Vec<Digest> = msgs.iter().map(|m| alg.hash(m)).collect();
        let t2 = MerkleTree::build(alg, &manual);
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn capacity_formula_spot_values() {
        // 1280 B packet, 20 B hash (paper's Fig. 5 curve a).
        assert_eq!(payload_capacity(1, 1280, 20), 1260);
        assert_eq!(payload_capacity(2, 1280, 20), 2 * (1280 - 40));
        assert_eq!(payload_capacity(1024, 1280, 20), 1024 * (1280 - 220));
        // 128 B packets run out of room quickly (curve d's early end).
        assert_eq!(payload_capacity(64, 128, 20), 0); // 20*(6+1)=140 > 128
        assert_eq!(payload_capacity(32, 128, 20), 32 * (128 - 120));
    }

    #[test]
    fn capacity_matches_real_tree_sizes() {
        // The formula's per-packet signature bytes must equal what a real
        // tree emits: path entries + one chain element.
        for n in [1usize, 2, 3, 8, 33, 128] {
            let alg = Algorithm::Sha1;
            let t = MerkleTree::build(alg, &leaves(alg, n));
            let per_packet_sig = (t.auth_path(0).len() + 1) * alg.digest_len();
            let formula_sig = (log2_ceil(n as u64) + 1) * 20;
            assert_eq!(per_packet_sig as u64, formula_sig, "n={n}");
        }
    }

    #[test]
    fn overhead_ratio_monotone_in_hash_count() {
        let r1 = overhead_ratio(1, 1280, 20).unwrap();
        let r1024 = overhead_ratio(1024, 1280, 20).unwrap();
        assert!(r1 < r1024);
        assert!(overhead_ratio(64, 128, 20).is_none());
    }

    #[test]
    fn seesaw_at_power_of_two_boundaries() {
        // Fig. 5: crossing a power of two adds one path level and dents
        // per-packet payload.
        let at_8 = payload_capacity(8, 512, 20) / 8;
        let at_9 = payload_capacity(9, 512, 20) / 9;
        assert!(at_9 < at_8);
    }
}
