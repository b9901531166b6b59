//! Acknowledgment Merkle Trees (§3.3.3, Fig. 7) — selective per-packet
//! acknowledgments for ALPHA-M.
//!
//! Flat pre-(n)acks ([`crate::preack`]) commit to one verdict pair per
//! exchange; with ALPHA-M one S1 covers `n` messages, and committing to
//! every ack/nack combination would need `2^n` pre-(n)acks. The AMT instead
//! commits to `2n` *independent* verdict leaves in one hash tree:
//!
//! ```text
//!                 H( ack₀ | nack₁ | h^Va )          (keyed root, in A1)
//!                /                  \
//!        ack subtree              nack subtree
//!       leaves H(x_j|s_j)      leaves H(x_j|s_{n+j})
//! ```
//!
//! Leaves in the left subtree mean "packet `x_j` acknowledged", leaves in
//! the right subtree mean "packet `x_j` negatively acknowledged"; each leaf
//! hides a distinct secret. To report a verdict for packet `j`, the
//! verifier's A2 packet discloses `(x_j, s, {Bc})` — index, the one secret,
//! and the authentication path — so the signer and relays verify each
//! verdict independently. This is what enables selective-repeat and
//! go-back-n retransmission schemes over ALPHA-M.

use crate::backend::{self, Padded};
use crate::merkle::MerkleTree;
use crate::{Algorithm, Digest};
use rand::RngCore;

/// Byte length of each leaf secret `s_i`.
pub const SECRET_LEN: usize = 16;

/// One disclosed verdict, the contents of an A2 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmtDisclosure {
    /// Packet index `x_j` within the covered ALPHA-M bundle.
    pub packet_index: u32,
    /// `true` = acknowledged, `false` = negatively acknowledged.
    pub ack: bool,
    /// The leaf secret for this verdict.
    pub secret: [u8; SECRET_LEN],
    /// Authentication path from the leaf to the children of the keyed root.
    pub path: Vec<Digest>,
}

impl AmtDisclosure {
    /// Wire size of the disclosure (index + secret + path), the per-ack
    /// cost that replaces a full signature exchange.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        4 + SECRET_LEN + self.path.iter().map(Digest::len).sum::<usize>()
    }
}

/// The verifier-side AMT: all `2n` secrets plus the tree over them.
///
/// ```
/// use alpha_crypto::amt::{self, AckMerkleTree};
/// use alpha_crypto::Algorithm;
///
/// let alg = Algorithm::Sha1;
/// let mut rng = rand::thread_rng();
/// let key = alg.hash(b"ack chain element");
/// let tree = AckMerkleTree::generate(alg, 8, &mut rng);
/// let root = tree.keyed_root(&key); // committed in the A1 packet
///
/// // Later: acknowledge packet 3, nack packet 5 — each verdict verifies
/// // independently against the committed root.
/// let ok = tree.disclose(3, true);
/// let bad = tree.disclose(5, false);
/// assert_eq!(amt::verify_disclosure(alg, &key, 8, &ok, &root), Some(true));
/// assert_eq!(amt::verify_disclosure(alg, &key, 8, &bad, &root), Some(false));
/// ```
#[derive(Clone)]
pub struct AckMerkleTree {
    alg: Algorithm,
    n: usize,
    secrets: Vec<[u8; SECRET_LEN]>,
    tree: MerkleTree,
}

impl AckMerkleTree {
    /// Build an AMT able to acknowledge `n ≥ 1` packets.
    #[must_use]
    pub fn generate(alg: Algorithm, n: usize, rng: &mut dyn RngCore) -> AckMerkleTree {
        assert!(n >= 1, "AMT must cover at least one packet");
        let mut secrets = Vec::with_capacity(2 * n);
        for _ in 0..2 * n {
            let mut s = [0u8; SECRET_LEN];
            rng.fill_bytes(&mut s);
            secrets.push(s);
        }
        Self::from_secrets(alg, secrets)
    }

    /// Rebuild an AMT from its `2n` leaf secrets (hibernation thaw). The
    /// tree is a deterministic function of the secrets, so this produces
    /// roots, paths, and disclosures identical to the original.
    ///
    /// # Panics
    /// Panics if `secrets` is empty or odd-length.
    #[must_use]
    pub fn from_secrets(alg: Algorithm, secrets: Vec<[u8; SECRET_LEN]>) -> AckMerkleTree {
        assert!(
            !secrets.is_empty() && secrets.len().is_multiple_of(2),
            "AMT needs 2n secrets"
        );
        let n = secrets.len() / 2;
        // Leaf hashing is embarrassingly parallel: batch `H(x | secret)`
        // across lanes (byte-identical to the scalar `leaf_digest` loop).
        let mut leaves = vec![Digest::zero(alg); 2 * n];
        for (k, (secrets, out)) in secrets
            .chunks(backend::LANES)
            .zip(leaves.chunks_mut(backend::LANES))
            .enumerate()
        {
            let mut jobs = [Padded::EMPTY; backend::LANES];
            for (j, (job, secret)) in jobs.iter_mut().zip(secrets).enumerate() {
                let x = (((k * backend::LANES + j) % n) as u32).to_be_bytes();
                job.fill(&[&x, secret]);
            }
            backend::hash_lanes_with(backend::active(), alg, &jobs[..out.len()], out);
        }
        let tree = MerkleTree::build(alg, &leaves);
        AckMerkleTree {
            alg,
            n,
            secrets,
            tree,
        }
    }

    /// The `2n` leaf secrets, ack half first (for hibernation freeze;
    /// feed back through [`AckMerkleTree::from_secrets`]).
    #[must_use]
    pub fn secrets(&self) -> &[[u8; SECRET_LEN]] {
        &self.secrets
    }

    /// Number of packets this AMT can acknowledge.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// The keyed root `H(left | right | key)` transmitted in the A1 packet,
    /// keyed with the verifier's next undisclosed acknowledgment-chain
    /// element (Fig. 7 puts the chain element last).
    #[must_use]
    pub fn keyed_root(&self, key: &Digest) -> Digest {
        keyed_root_from_children(self.alg, &self.top_children(), key)
    }

    fn top_children(&self) -> [Digest; 2] {
        // The tree has ≥ 2 leaves, so depth ≥ 1 and the children of the
        // root exist; recompute them from the two half-roots via paths.
        // MerkleTree retains levels, so pull them through auth_path of leaf 0:
        // the last path entry of leaf 0 is the right child; the left child
        // is the root of the left subtree, reconstructible — instead we
        // simply rebuild from the stored levels through the public API:
        let path0 = self.tree.auth_path(0);
        let depth = path0.len();
        let leaf0 = self.tree.leaf(0);
        // Reconstruct left child by walking leaf 0 up depth-1 levels.
        let mut cur = leaf0;
        let mut idx = 0usize;
        for sib in &path0[..depth - 1] {
            cur = if idx.is_multiple_of(2) {
                self.alg.hash_parts(&[cur.as_bytes(), sib.as_bytes()])
            } else {
                self.alg.hash_parts(&[sib.as_bytes(), cur.as_bytes()])
            };
            idx >>= 1;
        }
        [cur, path0[depth - 1]]
    }

    /// Disclose the verdict for packet `j` (`0 ≤ j < n`).
    #[must_use]
    pub fn disclose(&self, j: usize, ack: bool) -> AmtDisclosure {
        assert!(j < self.n, "packet index out of range");
        let leaf_index = if ack { j } else { self.n + j };
        AmtDisclosure {
            packet_index: j as u32,
            ack,
            secret: self.secrets[leaf_index],
            path: self.tree.auth_path(leaf_index),
        }
    }

    /// Bytes the verifier holds for this AMT: `2n` secrets plus every tree
    /// node — the `n·s + (4n−1)h` verifier entry of Table 3 (the paper
    /// counts the secret storage once; we store ack and nack secrets
    /// separately, hence `2n·s`).
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        let h = self.alg.digest_len();
        let nodes = 2 * self.tree.leaf_count().next_power_of_two() - 1;
        self.secrets.len() * SECRET_LEN + nodes * h
    }
}

fn leaf_digest(alg: Algorithm, x: u32, secret: &[u8; SECRET_LEN]) -> Digest {
    alg.hash_parts(&[&x.to_be_bytes(), secret])
}

fn keyed_root_from_children(alg: Algorithm, children: &[Digest; 2], key: &Digest) -> Digest {
    alg.hash_parts(&[
        children[0].as_bytes(),
        children[1].as_bytes(),
        key.as_bytes(),
    ])
}

/// Verify a disclosed verdict against the AMT root buffered from the A1
/// packet. `n` is the bundle size announced alongside the root; `key` is
/// the acknowledgment-chain element disclosed in the A2 packet (already
/// authenticated against the verifier's chain by the caller).
///
/// Returns the verified verdict, or `None` if the disclosure is invalid.
#[must_use]
pub fn verify_disclosure(
    alg: Algorithm,
    key: &Digest,
    n: usize,
    disclosure: &AmtDisclosure,
    root: &Digest,
) -> Option<bool> {
    let j = disclosure.packet_index as usize;
    if j >= n || disclosure.path.is_empty() {
        return None;
    }
    let expected_depth = crate::merkle::log2_ceil(2 * n as u64) as usize;
    if disclosure.path.len() != expected_depth {
        return None;
    }
    let leaf_index = if disclosure.ack { j } else { n + j };
    let mut cur = leaf_digest(alg, disclosure.packet_index, &disclosure.secret);
    let mut idx = leaf_index;
    for sib in &disclosure.path[..disclosure.path.len() - 1] {
        cur = if idx % 2 == 0 {
            alg.hash_parts(&[cur.as_bytes(), sib.as_bytes()])
        } else {
            alg.hash_parts(&[sib.as_bytes(), cur.as_bytes()])
        };
        idx >>= 1;
    }
    let sib = disclosure.path[disclosure.path.len() - 1];
    let children = if idx % 2 == 0 { [cur, sib] } else { [sib, cur] };
    let computed = keyed_root_from_children(alg, &children, key);
    if crate::ct_eq(computed.as_bytes(), root.as_bytes()) {
        Some(disclosure.ack)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn all_verdicts_verify() {
        for alg in Algorithm::ALL {
            let key = alg.hash(b"ack element");
            let amt = AckMerkleTree::generate(alg, 8, &mut rng());
            let root = amt.keyed_root(&key);
            for j in 0..8 {
                for ack in [true, false] {
                    let d = amt.disclose(j, ack);
                    assert_eq!(verify_disclosure(alg, &key, 8, &d, &root), Some(ack));
                }
            }
        }
    }

    #[test]
    fn single_packet_amt() {
        let alg = Algorithm::Sha1;
        let key = alg.hash(b"k");
        let amt = AckMerkleTree::generate(alg, 1, &mut rng());
        let root = amt.keyed_root(&key);
        assert_eq!(
            verify_disclosure(alg, &key, 1, &amt.disclose(0, true), &root),
            Some(true)
        );
        assert_eq!(
            verify_disclosure(alg, &key, 1, &amt.disclose(0, false), &root),
            Some(false)
        );
    }

    #[test]
    fn verdict_flip_rejected() {
        let alg = Algorithm::Sha1;
        let key = alg.hash(b"k");
        let amt = AckMerkleTree::generate(alg, 4, &mut rng());
        let root = amt.keyed_root(&key);
        let mut d = amt.disclose(2, true);
        d.ack = false; // attacker claims the ack was a nack
        assert_eq!(verify_disclosure(alg, &key, 4, &d, &root), None);
    }

    #[test]
    fn packet_index_tamper_rejected() {
        let alg = Algorithm::Sha1;
        let key = alg.hash(b"k");
        let amt = AckMerkleTree::generate(alg, 4, &mut rng());
        let root = amt.keyed_root(&key);
        let mut d = amt.disclose(2, true);
        d.packet_index = 3; // re-target the ack to another packet
        assert_eq!(verify_disclosure(alg, &key, 4, &d, &root), None);
    }

    #[test]
    fn wrong_key_rejected() {
        let alg = Algorithm::MmoAes;
        let key = alg.hash(b"k");
        let amt = AckMerkleTree::generate(alg, 4, &mut rng());
        let root = amt.keyed_root(&key);
        let d = amt.disclose(0, true);
        let wrong = alg.hash(b"not k");
        assert_eq!(verify_disclosure(alg, &wrong, 4, &d, &root), None);
    }

    #[test]
    fn out_of_range_or_bad_path_rejected() {
        let alg = Algorithm::Sha1;
        let key = alg.hash(b"k");
        let amt = AckMerkleTree::generate(alg, 4, &mut rng());
        let root = amt.keyed_root(&key);
        let mut d = amt.disclose(0, true);
        d.packet_index = 9;
        assert_eq!(verify_disclosure(alg, &key, 4, &d, &root), None);
        let mut d2 = amt.disclose(0, true);
        d2.path.pop();
        assert_eq!(verify_disclosure(alg, &key, 4, &d2, &root), None);
        let mut d3 = amt.disclose(0, true);
        d3.path[0] = alg.hash(b"junk");
        assert_eq!(verify_disclosure(alg, &key, 4, &d3, &root), None);
    }

    #[test]
    fn secrets_are_per_leaf() {
        let alg = Algorithm::Sha1;
        let amt = AckMerkleTree::generate(alg, 4, &mut rng());
        let a = amt.disclose(0, true).secret;
        let b = amt.disclose(0, false).secret;
        let c = amt.disclose(1, true).secret;
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn non_power_of_two_bundle() {
        let alg = Algorithm::Sha1;
        let key = alg.hash(b"k");
        let amt = AckMerkleTree::generate(alg, 5, &mut rng());
        let root = amt.keyed_root(&key);
        for j in 0..5 {
            let d = amt.disclose(j, j % 2 == 0);
            assert_eq!(verify_disclosure(alg, &key, 5, &d, &root), Some(j % 2 == 0));
        }
    }

    #[test]
    fn from_secrets_reproduces_roots_and_disclosures() {
        for alg in Algorithm::ALL {
            let key = alg.hash(b"ack element");
            let amt = AckMerkleTree::generate(alg, 5, &mut rng());
            let rebuilt = AckMerkleTree::from_secrets(alg, amt.secrets().to_vec());
            assert_eq!(rebuilt.capacity(), amt.capacity());
            assert_eq!(rebuilt.keyed_root(&key), amt.keyed_root(&key));
            for j in 0..5 {
                for ack in [true, false] {
                    assert_eq!(rebuilt.disclose(j, ack), amt.disclose(j, ack));
                }
            }
        }
    }

    #[test]
    fn stored_bytes_scale_with_n() {
        let alg = Algorithm::Sha1;
        let small = AckMerkleTree::generate(alg, 4, &mut rng()).stored_bytes();
        let large = AckMerkleTree::generate(alg, 64, &mut rng()).stored_bytes();
        assert!(large > small * 8);
    }

    #[test]
    fn disclosure_wire_size_grows_logarithmically() {
        let alg = Algorithm::Sha1;
        let amt4 = AckMerkleTree::generate(alg, 4, &mut rng());
        let amt64 = AckMerkleTree::generate(alg, 64, &mut rng());
        let d4 = amt4.disclose(0, true).wire_bytes();
        let d64 = amt64.disclose(0, true).wire_bytes();
        // 4→64 packets: path grows from log2(8)=3 to log2(128)=7 entries.
        assert_eq!(d64 - d4, 4 * alg.digest_len());
    }
}
