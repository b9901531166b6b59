//! What a verifying role buffers of one exchange, and the rules that
//! judge an S2 or an A2 against it.
//!
//! ALPHA's hop-by-hop claim is that a relay runs the receiver's own check
//! (§3.1, §3.3): both buffer the S1's pre-signature and verify each S2
//! against it, and the sender and every relay verify each A2 against the
//! A1's commitment. This module is that one check. It owns the buffered
//! forms — [`Presig`] (MACs, a keyed root or a forest) and [`Commit`] (a
//! flat pre-(n)ack pair or an AMT root), held alike by the host verifier,
//! the relay and the frozen record — and the acceptance rules: the
//! chain-tracker step ([`chain_step`]), the S2 key check
//! ([`Announced::s2_check`]) and the A2 verdict check
//! ([`Commit::verdicts`]). Nothing here branches on who is asking; what
//! differs by role (the relay's search over both directions and its
//! unsolicited-data policy, the host's `BadSeq` and reliable-mode nacks,
//! the signer's retransmit bookkeeping) stays with the caller.

use alpha_crypto::amt;
use alpha_crypto::chain::{self, ChainError, ChainKind, ChainVerifier, Role};
use alpha_crypto::preack::{self, AckDisclosure, PreAckPair};
use alpha_crypto::{merkle, Algorithm, Digest};
use alpha_wire::{AckCommit, AmtItemView, PreSignature, PreSignatureView};

use crate::batch::{S2BatchItem, S2Check};
use crate::ProtocolError;

/// A buffered S1 pre-signature, checked once on the way in: it covers at
/// least one message, and a forest maps every sequence number to one
/// `(tree, leaf)`.
#[derive(Clone)]
pub(crate) struct Presig(PreSignature);

impl Presig {
    /// The one way in. A forest is valid when every tree but the last
    /// carries the same non-zero leaf count and the last at most that
    /// many; `None` for anything else that covers nothing.
    pub(crate) fn new(presig: PreSignature) -> Option<Presig> {
        let valid = match &presig {
            PreSignature::Cumulative(macs) => !macs.is_empty(),
            PreSignature::MerkleRoot { leaves, .. } => *leaves > 0,
            PreSignature::MerkleForest(trees) => forest_maps(trees.iter().map(|t| t.leaves)),
        };
        valid.then_some(Presig(presig))
    }

    /// Whether [`Presig::new`] would take this datagram's pre-signature,
    /// judged in place.
    pub(crate) fn admits(view: &PreSignatureView<'_>) -> bool {
        match view {
            PreSignatureView::Cumulative(macs) => !macs.is_empty(),
            PreSignatureView::MerkleRoot { leaves, .. } => *leaves > 0,
            PreSignatureView::MerkleForest(trees) => forest_maps(trees.iter().map(|t| t.leaves)),
        }
    }

    /// A pre-signature [`Presig::admits`] took, copied out of the
    /// datagram into `spare`'s buffer when that holds one of the same
    /// kind: a role that retires one buffered S1 per S1 it takes
    /// allocates nothing in steady state.
    pub(crate) fn copy_of(view: &PreSignatureView<'_>, spare: Option<Presig>) -> Presig {
        let presig = match (view, spare.map(|p| p.0)) {
            (PreSignatureView::Cumulative(macs), Some(PreSignature::Cumulative(mut buf))) => {
                buf.clear();
                buf.extend(macs.iter());
                PreSignature::Cumulative(buf)
            }
            (PreSignatureView::MerkleForest(trees), Some(PreSignature::MerkleForest(mut buf))) => {
                buf.clear();
                buf.extend(trees.iter());
                PreSignature::MerkleForest(buf)
            }
            (view, _) => view.to_presignature(),
        };
        Presig(presig)
    }

    /// A pre-signature that skipped [`Presig::new`], for tests that need
    /// one the constructor refuses.
    #[cfg(test)]
    pub(crate) fn unchecked(presig: PreSignature) -> Presig {
        Presig(presig)
    }

    /// The wire form, as the frozen record encodes it.
    pub(crate) fn wire(&self) -> &PreSignature {
        &self.0
    }

    /// Messages covered.
    pub(crate) fn covered(&self) -> usize {
        match &self.0 {
            PreSignature::Cumulative(macs) => macs.len(),
            PreSignature::MerkleRoot { leaves, .. } => *leaves as usize,
            PreSignature::MerkleForest(trees) => trees.iter().map(|t| t.leaves as usize).sum(),
        }
    }

    /// Bytes buffered for digests of length `h`: Table 2's `n·h` for
    /// MACs, `h` for a root, `h` per tree for a forest.
    pub(crate) fn stored_bytes(&self, h: usize) -> usize {
        match &self.0 {
            PreSignature::Cumulative(macs) => macs.len() * h,
            PreSignature::MerkleRoot { .. } => h,
            PreSignature::MerkleForest(trees) => trees.len() * h,
        }
    }

    /// What message `seq`, carrying an authentication path of
    /// `path_len` siblings, owes this pre-signature. `None` when `seq` is
    /// not covered or the path has the wrong depth: the S2 fails without
    /// hashing.
    pub(crate) fn check(&self, seq: u32, path_len: usize) -> Option<S2Check> {
        let depth = |leaves: u32| merkle::log2_ceil(u64::from(leaves).max(1)) as usize;
        let seq = seq as usize;
        let (root, leaves, leaf_index) = match &self.0 {
            PreSignature::Cumulative(macs) => {
                return macs.get(seq).map(|&expected| S2Check::Mac { expected })
            }
            PreSignature::MerkleRoot { root, leaves } => (root, *leaves, seq),
            PreSignature::MerkleForest(trees) => {
                let lpt = trees[0].leaves as usize;
                let tree = trees.get(seq / lpt)?;
                (&tree.root, tree.leaves, seq % lpt)
            }
        };
        (leaf_index < leaves as usize && path_len == depth(leaves)).then_some(S2Check::Keyed {
            root: *root,
            leaf_index,
        })
    }
}

/// Whether a forest's per-tree leaf counts, in order, map every sequence
/// number to one `(tree, leaf)`: every tree but the last carries the
/// first tree's non-zero count, and the last at most that many.
fn forest_maps(mut leaves: impl Iterator<Item = u32>) -> bool {
    let Some(per_tree) = leaves.next() else {
        return false;
    };
    let mut last = per_tree;
    for next in leaves {
        if last != per_tree {
            return false;
        }
        last = next;
    }
    per_tree > 0 && last <= per_tree
}

/// What both verifying roles keep of one S1: its chain index, its
/// authenticated announce element and its pre-signature.
#[derive(Clone)]
pub(crate) struct Announced {
    /// Chain index of the announce element; the exchange's S2s disclose
    /// their MAC key at `index − 1`.
    pub(crate) index: u64,
    /// The announce element: a late S2's key verifies in one hash against
    /// it after the chain tracker has moved on to a newer exchange.
    pub(crate) announce: Digest,
    pub(crate) presig: Presig,
}

impl Announced {
    /// Whether an S2 disclosing its key at `chain_index` belongs to this
    /// exchange.
    pub(crate) fn claims(&self, chain_index: u64) -> bool {
        self.index == chain_index.wrapping_add(1)
    }

    /// The S2 judgment up to its crypto: authenticate the disclosed key,
    /// then return what the message owes the pre-signature (`Ok(None)`:
    /// it fails without hashing). For the `current` exchange the
    /// signature-chain tracker `sig` takes the key ([`chain_step`]); for
    /// the superseded one — its announce authenticated, the tracker
    /// moved on — one forward derivation must land on the stored
    /// announce element.
    pub(crate) fn s2_check(
        &self,
        alg: Algorithm,
        sig: &mut ChainVerifier,
        current: bool,
        item: &S2BatchItem<'_>,
    ) -> Result<Option<S2Check>, ChainError> {
        if current {
            chain_step(sig, item.chain_index, item.key, Role::Disclose)?;
        } else {
            let derived = chain::derive(alg, ChainKind::RoleBoundSignature, self.index, item.key);
            if !alpha_crypto::ct_eq(derived.as_bytes(), self.announce.as_bytes()) {
                return Err(ChainError::Mismatch);
            }
        }
        Ok(self.presig.check(item.seq, item.path.len()))
    }
}

/// Which of a role's two buffered exchanges (`s1` reads the S1 record
/// out of either) an S2 disclosing its key at `chain_index` claims, and
/// whether that is the current one rather than the one it superseded.
pub(crate) fn claimed<'a, T>(
    current: Option<&'a T>,
    previous: Option<&'a T>,
    s1: impl Fn(&T) -> &Announced,
    chain_index: u64,
) -> Option<(bool, &'a T)> {
    let claims = |ex: &&T| s1(ex).claims(chain_index);
    current
        .filter(claims)
        .map(|ex| (true, ex))
        .or_else(|| previous.filter(claims).map(|ex| (false, ex)))
}

/// Authenticate `element` at `index` on a chain tracker: `Ok(true)` when
/// it repeats the last accepted element (a retransmitted packet; nothing
/// is hashed), `Ok(false)` when it is accepted fresh in `role`.
pub(crate) fn chain_step(
    chain: &mut ChainVerifier,
    index: u64,
    element: &Digest,
    role: Role,
) -> Result<bool, ChainError> {
    let (last_index, last) = chain.last();
    if index == last_index {
        return if alpha_crypto::ct_eq(element.as_bytes(), last.as_bytes()) {
            Ok(true)
        } else {
            Err(ChainError::Mismatch)
        };
    }
    chain.accept_role(index, element, role).map(|()| false)
}

/// A buffered A1 commitment to the verifier's verdicts.
#[derive(Clone, Copy)]
pub(crate) enum Commit {
    /// Flat pre-(n)ack pair (Base / ALPHA-C reliable, §3.2.2).
    Flat(PreAckPair),
    /// AMT keyed root over `leaves` packets (ALPHA-M reliable, §3.3.3).
    Amt { root: Digest, leaves: u32 },
}

/// An A2's verdict disclosure, read in place from its datagram: `I`
/// yields the AMT items.
pub(crate) enum Disclosure<I> {
    Flat(AckDisclosure),
    Amt(I),
}

impl Commit {
    /// The commitment an A1 carries; `None` in unreliable mode.
    pub(crate) fn new(commit: &AckCommit) -> Option<Commit> {
        match *commit {
            AckCommit::None => None,
            AckCommit::Flat { pre_ack, pre_nack } => {
                Some(Commit::Flat(PreAckPair { pre_ack, pre_nack }))
            }
            AckCommit::Amt { root, leaves } => Some(Commit::Amt { root, leaves }),
        }
    }

    /// Bytes buffered (Table 3's signer / relay column).
    pub(crate) fn stored_bytes(&self) -> usize {
        match self {
            Commit::Flat(pair) => pair.stored_bytes(),
            Commit::Amt { root, .. } => root.len(),
        }
    }

    /// The A2 check: every verdict `disclosure` reveals, verified against
    /// this commitment under the A2's ack-chain element `key` (already
    /// authenticated), as `(seq, ack)` — a flat verdict covers the bundle
    /// and reads as seq 0. All or nothing: an A2 with one bad item yields
    /// no verdicts, so a caller only ever applies a genuine A2.
    /// `UnexpectedPacket` when the disclosure is not the committed kind,
    /// `BadMac` when a verdict does not verify.
    pub(crate) fn verdicts<'a>(
        &self,
        alg: Algorithm,
        key: &Digest,
        disclosure: Disclosure<impl IntoIterator<Item = AmtItemView<'a>>>,
    ) -> Result<Vec<(u32, bool)>, ProtocolError> {
        let mut verdicts = Vec::new();
        self.verdicts_into(alg, key, disclosure, &mut verdicts)?;
        Ok(verdicts)
    }

    /// [`Commit::verdicts`] into a caller's buffer, which is cleared
    /// first and left empty on error: a role that keeps one buffer
    /// judges its A2s without allocating.
    pub(crate) fn verdicts_into<'a>(
        &self,
        alg: Algorithm,
        key: &Digest,
        disclosure: Disclosure<impl IntoIterator<Item = AmtItemView<'a>>>,
        out: &mut Vec<(u32, bool)>,
    ) -> Result<(), ProtocolError> {
        out.clear();
        let judged = match (self, disclosure) {
            (Commit::Flat(pair), Disclosure::Flat(d)) => {
                if preack::verify(alg, key, &d, pair) {
                    out.push((0, d.ack));
                    Ok(())
                } else {
                    Err(ProtocolError::BadMac)
                }
            }
            (Commit::Amt { root, leaves }, Disclosure::Amt(items)) => {
                items.into_iter().try_for_each(|item| {
                    let (index, path) = (item.packet_index, item.path.to_path());
                    let n = *leaves as usize;
                    let ack =
                        amt::verify_parts(alg, key, n, index, item.ack, &item.secret, &path, root)
                            .ok_or(ProtocolError::BadMac)?;
                    out.push((index, ack));
                    Ok(())
                })
            }
            _ => Err(ProtocolError::UnexpectedPacket),
        };
        if judged.is_err() {
            out.clear();
        }
        judged
    }
}
