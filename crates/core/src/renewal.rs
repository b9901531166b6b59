//! In-band chain renewal: replacing hash chains before they exhaust.
//!
//! Hash chains are finite — a 1024-element chain carries ~511 exchanges —
//! so a long-lived association must eventually re-key. Re-running the
//! public-key-protected handshake works but costs exactly the asymmetric
//! operations ALPHA exists to avoid. Instead, the association's existing
//! security does the work: the owner generates fresh chains and sends
//! their anchors as an ordinary ALPHA-protected message. Everyone who can
//! verify that message — the peer *and every relay doing on-path
//! verification* — learns the new anchors with hash-chain-level assurance,
//! chained to the original (possibly PK-protected) bootstrap.
//!
//! Usage:
//!
//! 1. `let (offer, payload) = renewal::offer(&cfg, rng);`
//! 2. Send `payload` as a normal (preferably reliable) message.
//! 3. Peer and relays recognize the payload automatically
//!    ([`crate::Association::handle`] / [`crate::Relay::observe`] inspect verified
//!    payloads) and switch their trackers.
//! 4. After delivery is confirmed, commit locally:
//!    `assoc.commit_renewal(offer)`.
//!
//! The renewal message is authenticated by the *old* chains; the new
//! chains take effect for subsequent exchanges. This is the hash-chain
//! analogue of §3.4's observation that identity flows from whatever
//! authenticated the first anchors.

use alpha_crypto::chain::HashChain;
use alpha_crypto::{Algorithm, Digest};
use rand::RngCore;

use crate::Config;

/// Marker prefix distinguishing renewal payloads from application data.
pub const MAGIC: &[u8; 12] = b"ALPHA-RENEW\x01";

/// Freshly generated chains awaiting delivery confirmation.
pub struct RenewalOffer {
    pub(crate) sig_chain: HashChain,
    pub(crate) ack_chain: HashChain,
}

/// The peer-visible half of a renewal: the new anchors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenewalAnchors {
    /// New signature-chain anchor and index.
    pub sig: (Digest, u64),
    /// New acknowledgment-chain anchor and index.
    pub ack: (Digest, u64),
}

/// Generate fresh chains per `cfg` and the payload announcing them.
#[must_use]
pub fn offer(cfg: &Config, rng: &mut dyn RngCore) -> (RenewalOffer, Vec<u8>) {
    let (sig_chain, ack_chain) = crate::bootstrap::make_chains(cfg, rng);
    let payload = encode(cfg.algorithm, &sig_chain, &ack_chain);
    (
        RenewalOffer {
            sig_chain,
            ack_chain,
        },
        payload,
    )
}

fn encode(alg: Algorithm, sig: &HashChain, ack: &HashChain) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 1 + 16 + 2 * alg.digest_len());
    out.extend_from_slice(MAGIC);
    out.push(match alg {
        Algorithm::Sha1 => 1,
        Algorithm::Sha256 => 2,
        Algorithm::MmoAes => 3,
    });
    out.extend_from_slice(&sig.anchor_index().to_be_bytes());
    out.extend_from_slice(sig.anchor().as_bytes());
    out.extend_from_slice(&ack.anchor_index().to_be_bytes());
    out.extend_from_slice(ack.anchor().as_bytes());
    out
}

/// Parse a verified payload as a renewal announcement. Returns `None` for
/// ordinary application data or malformed announcements.
#[must_use]
pub fn parse(alg: Algorithm, payload: &[u8]) -> Option<RenewalAnchors> {
    let rest = payload.strip_prefix(MAGIC.as_slice())?;
    let h = alg.digest_len();
    if rest.len() != 1 + 2 * (8 + h) {
        return None;
    }
    let tag_ok = matches!(
        (rest[0], alg),
        (1, Algorithm::Sha1) | (2, Algorithm::Sha256) | (3, Algorithm::MmoAes)
    );
    if !tag_ok {
        return None;
    }
    let rest = &rest[1..];
    let sig_idx = u64::from_be_bytes(rest[..8].try_into().ok()?);
    let sig_anchor = Digest::from_slice(&rest[8..8 + h]);
    let rest = &rest[8 + h..];
    let ack_idx = u64::from_be_bytes(rest[..8].try_into().ok()?);
    let ack_anchor = Digest::from_slice(&rest[8..8 + h]);
    if sig_idx < 2 || ack_idx < 2 {
        return None;
    }
    Some(RenewalAnchors {
        sig: (sig_anchor, sig_idx),
        ack: (ack_anchor, ack_idx),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn offer_roundtrips_through_parse() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(64);
        let (offer, payload) = offer(&cfg, &mut rng);
        let anchors = parse(Algorithm::Sha1, &payload).expect("parses");
        assert_eq!(anchors.sig.0, offer.sig_chain.anchor());
        assert_eq!(anchors.sig.1, 64);
        assert_eq!(anchors.ack.0, offer.ack_chain.anchor());
    }

    #[test]
    fn ordinary_payloads_are_not_renewals() {
        assert!(parse(Algorithm::Sha1, b"just application data").is_none());
        assert!(parse(Algorithm::Sha1, b"").is_none());
        assert!(parse(Algorithm::Sha1, MAGIC).is_none()); // truncated
    }

    #[test]
    fn algorithm_mismatch_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cfg = Config::new(Algorithm::Sha256).with_chain_len(32);
        let (_, payload) = offer(&cfg, &mut rng);
        assert!(parse(Algorithm::Sha256, &payload).is_some());
        assert!(parse(Algorithm::Sha1, &payload).is_none());
    }

    #[test]
    fn tampered_length_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cfg = Config::new(Algorithm::Sha1).with_chain_len(32);
        let (_, mut payload) = offer(&cfg, &mut rng);
        payload.pop();
        assert!(parse(Algorithm::Sha1, &payload).is_none());
    }
}
