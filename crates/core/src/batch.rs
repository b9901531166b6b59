//! The batched S2 step both verifying roles share.
//!
//! An S2 is judged in three steps. *Prepare* matches its exchange,
//! authenticates the disclosed key and checks its shape against the
//! buffered pre-signature; *crypto* recomputes the MAC or keyed Merkle
//! root that prepare left pending; *finish* acts on the result. Prepare
//! and finish touch per-flow state and run item by item, in order; the
//! crypto of one item never depends on another's, so a chunk's worth runs
//! here in batched sweeps — HMACs through the lane-parallel backend,
//! Merkle paths through [`merkle::keyed_roots`], which hashes each node a
//! bundle shares once. The host verifier
//! ([`crate::VerifierChannel::handle_s2_run`]) and the relay
//! ([`crate::AssociationRelay::observe_s2_run`]) both run these steps
//! over the chunks [`chunks`] cuts, and a lone S2 is a chunk of one:
//! there is one verification path per role, and prepare's key and shape
//! check is the same code in both ([`crate::exchange`]).

use alpha_crypto::merkle::{self, KeyedLeaf, Siblings};
use alpha_crypto::{backend, Algorithm, Digest};
use alpha_wire::{BodyView, PacketView};

use crate::signer::message_mac;
use crate::MacScheme;

/// Most items one chunk verifies at once: a bundle's worth, so every
/// working array of a chunk lives on the stack.
pub(crate) const RUN: usize = alpha_wire::limits::MAX_BUNDLE;

/// Borrowed fields of one S2 packet, as the batched verifiers take them.
#[derive(Debug, Clone, Copy)]
pub struct S2BatchItem<'a> {
    /// Hash algorithm from the packet header.
    pub alg: Algorithm,
    /// Chain index from the packet header.
    pub chain_index: u64,
    /// Disclosed MAC-key chain element, borrowed from the packet.
    pub key: &'a Digest,
    /// Message sequence number within its bundle.
    pub seq: u32,
    /// Merkle authentication path (empty for Base/ALPHA-C).
    pub path: Siblings<'a>,
    /// Borrowed payload bytes.
    pub payload: &'a [u8],
}

impl<'a> S2BatchItem<'a> {
    /// The S2 fields of a parsed packet, borrowing the view and its
    /// datagram; `None` for any other packet type.
    #[must_use]
    pub fn from_view(view: &'a PacketView<'_>) -> Option<S2BatchItem<'a>> {
        match &view.body {
            BodyView::S2 {
                key,
                seq,
                path,
                payload,
            } => Some(S2BatchItem {
                alg: view.alg,
                chain_index: view.chain_index,
                key,
                seq: *seq,
                path: path.siblings(),
                payload,
            }),
            _ => None,
        }
    }
}

/// The one cryptographic comparison an S2 still owes after prepare.
#[derive(Debug, Clone, Copy)]
pub(crate) enum S2Check {
    /// Recompute the per-message MAC and compare with the buffered one.
    Mac {
        /// MAC buffered from the S1 pre-signature for this sequence number.
        expected: Digest,
    },
    /// Recompute the keyed Merkle root from the payload leaf and its
    /// authentication path.
    Keyed {
        /// Keyed root buffered from the S1 pre-signature.
        root: Digest,
        /// Leaf index within the (per-tree) leaf range.
        leaf_index: usize,
    },
}

/// True when a payload could carry a control message a verifier acts on
/// (a signal or a chain renewal, both magic-prefixed). Verifying one
/// changes state the next item's prepare reads, so [`chunks`] gives it a
/// chunk of its own; a false positive (a malformed control payload) only
/// costs the batching, never correctness.
fn carries_control(payload: &[u8]) -> bool {
    payload.starts_with(crate::signal::MAGIC) || payload.starts_with(crate::renewal::MAGIC)
}

/// Cut a run into the chunks it is verified in: each control-carrying
/// item alone (a barrier), the control-free stretches between them in
/// pieces of at most [`RUN`]. Every chunk runs prepare → crypto →
/// finish before the next one starts, so decisions equal an
/// item-by-item pass.
pub(crate) fn chunks<'s, 'a>(
    mut items: &'s [S2BatchItem<'a>],
) -> impl Iterator<Item = &'s [S2BatchItem<'a>]> {
    std::iter::from_fn(move || {
        let first = items.first()?;
        let n = if carries_control(first.payload) {
            1
        } else {
            items
                .iter()
                .take(RUN)
                .take_while(|item| !carries_control(item.payload))
                .count()
        };
        let (chunk, rest) = items.split_at(n);
        items = rest;
        Some(chunk)
    })
}

/// HMACs per backend sweep (`mac_parts_batch` cuts its input the same
/// way), so a chunk's MAC jobs need only this much stack at a time.
const MAC_SWEEP: usize = 4;

/// The crypto step of a chunk (at most [`RUN`] items): `passed[k]` is
/// whether `check(k)` holds for `items[k]`, `false` where there is no
/// check. Digests and [`alpha_crypto::counting`] are exactly those of
/// checking each item alone, minus Merkle nodes the chunk shares.
pub(crate) fn run_checks(
    alg: Algorithm,
    scheme: MacScheme,
    items: &[S2BatchItem<'_>],
    check: impl Fn(usize) -> Option<S2Check>,
    passed: &mut [bool],
) {
    debug_assert!(items.len() <= RUN && passed.len() == items.len());
    // Items whose check is an HMAC still to sweep, or a keyed root.
    let mut macs = ([0usize; MAC_SWEEP], 0);
    let mut keyed = ([0usize; RUN], 0);
    for k in 0..items.len() {
        passed[k] = false;
        match check(k) {
            Some(S2Check::Mac { .. }) if scheme == MacScheme::Hmac => {
                macs.0[macs.1] = k;
                macs.1 += 1;
                if macs.1 == MAC_SWEEP {
                    hmac_sweep(alg, items, &check, &macs.0, passed);
                    macs.1 = 0;
                }
            }
            // A prefix MAC is one hash of the message: nothing to batch.
            Some(S2Check::Mac { expected }) => {
                let item = &items[k];
                let mac = message_mac(alg, scheme, item.key, item.seq, item.payload);
                passed[k] = alpha_crypto::ct_eq(mac.as_bytes(), expected.as_bytes());
            }
            Some(S2Check::Keyed { .. }) => {
                keyed.0[keyed.1] = k;
                keyed.1 += 1;
            }
            None => {}
        }
    }
    if macs.1 > 0 {
        hmac_sweep(alg, items, &check, &macs.0[..macs.1], passed);
    }
    let Some(&k0) = keyed.0[..keyed.1].first() else {
        return;
    };
    let leaf = |k: usize| {
        let index = match check(k) {
            Some(S2Check::Keyed { leaf_index, .. }) => leaf_index,
            _ => 0,
        };
        KeyedLeaf {
            key: items[k].key,
            message: items[k].payload,
            index,
            path: items[k].path,
        }
    };
    let mut leaves = [leaf(k0); RUN];
    for (slot, &k) in leaves.iter_mut().zip(&keyed.0[..keyed.1]).skip(1) {
        *slot = leaf(k);
    }
    let mut roots = [Digest::zero(alg); RUN];
    merkle::keyed_roots(alg, &leaves[..keyed.1], &mut roots[..keyed.1]);
    for (&k, computed) in keyed.0[..keyed.1].iter().zip(&roots) {
        if let Some(S2Check::Keyed { root, .. }) = check(k) {
            passed[k] = alpha_crypto::ct_eq(computed.as_bytes(), root.as_bytes());
        }
    }
}

/// One backend sweep of the HMAC checks of items `at` (at most
/// [`MAC_SWEEP`]).
fn hmac_sweep(
    alg: Algorithm,
    items: &[S2BatchItem<'_>],
    check: &impl Fn(usize) -> Option<S2Check>,
    at: &[usize],
    passed: &mut [bool],
) {
    let n = at.len();
    let mut seq_be = [[0u8; 4]; MAC_SWEEP];
    let mut keys: [&[u8]; MAC_SWEEP] = [&[]; MAC_SWEEP];
    for ((s, key), &k) in seq_be.iter_mut().zip(&mut keys).zip(at) {
        *s = items[k].seq.to_be_bytes();
        *key = items[k].key.as_bytes();
    }
    let mut parts: [[&[u8]; 2]; MAC_SWEEP] = [[&[]; 2]; MAC_SWEEP];
    for ((p, s), &k) in parts.iter_mut().zip(&seq_be).zip(at) {
        *p = [&s[..], items[k].payload];
    }
    let msgs: [&[&[u8]]; MAC_SWEEP] = std::array::from_fn(|j| &parts[j][..]);
    let mut macs = [Digest::zero(alg); MAC_SWEEP];
    backend::mac_parts_batch(alg, &keys[..n], &msgs[..n], &mut macs[..n]);
    for (&k, mac) in at.iter().zip(&macs) {
        if let Some(S2Check::Mac { expected }) = check(k) {
            passed[k] = alpha_crypto::ct_eq(mac.as_bytes(), expected.as_bytes());
        }
    }
}
