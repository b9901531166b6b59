//! Bootstrapping (§3.4): making hash-chain anchors known.
//!
//! Two flavours, both producing a ready [`Association`]:
//!
//! - **Unprotected**: anchors are exchanged in the clear. Each peer gains
//!   an *ephemeral anonymous identity* — enough to securely signal within
//!   the association (address changes, rate throttling, teardown), not
//!   enough to know *who* the peer is.
//! - **Protected**: the handshake's anchor fields are signed with RSA, DSA
//!   or ECDSA via `alpha-pk`, binding chains to strong cryptographic
//!   identities. ALPHA deliberately confines asymmetric cryptography to
//!   this one-time step.
//!
//! Relays learn anchors by observing the handshake
//! ([`crate::Relay::observe`]); for pre-deployed networks (static WSNs)
//! use [`crate::Relay::adopt`] and [`Association::from_chains`] directly.

use alpha_crypto::chain::{ChainKind, HashChain};
use alpha_pk::{PublicKey, Signer, VerifyingKey};
use alpha_wire::{Body, Handshake, HandshakeAuth, HandshakeRole, Packet};
use rand::RngCore;

use crate::{Association, Config, ProtocolError};

/// What the local side demands of the peer's handshake authentication.
#[derive(Clone, Copy)]
pub enum AuthRequirement<'a> {
    /// Accept unauthenticated handshakes (ephemeral anonymous identities).
    None,
    /// Require a valid signature under *some* key and surface that key to
    /// the caller (trust-on-first-use pinning).
    AnyKey,
    /// Require a valid signature under exactly this key.
    Pinned(&'a PublicKey),
}

/// Initiator-side state between sending HS1 and receiving HS2.
pub struct Handshaker {
    cfg: Config,
    assoc_id: u64,
    sig_chain: HashChain,
    ack_chain: HashChain,
}

/// Begin a handshake: generates the local chains and the HS1 packet.
/// Passing a [`Signer`] upgrades to a protected handshake.
pub fn initiate(
    cfg: Config,
    assoc_id: u64,
    auth: Option<&dyn Signer>,
    rng: &mut dyn RngCore,
) -> (Handshaker, Packet) {
    let (sig_chain, ack_chain) = make_chains(&cfg, rng);
    let packet = handshake_packet(
        &cfg,
        assoc_id,
        HandshakeRole::Init,
        &sig_chain,
        &ack_chain,
        auth,
        rng,
    );
    (
        Handshaker {
            cfg,
            assoc_id,
            sig_chain,
            ack_chain,
        },
        packet,
    )
}

/// Responder side: process HS1, emit HS2, and stand up the association.
/// Returns the peer's key when the handshake was authenticated.
pub fn respond(
    cfg: Config,
    init: &Packet,
    auth: Option<&dyn Signer>,
    require: AuthRequirement<'_>,
    rng: &mut dyn RngCore,
) -> Result<(Association, Packet, Option<PublicKey>), ProtocolError> {
    let Body::Handshake(hs) = &init.body else {
        return Err(ProtocolError::BadHandshake);
    };
    if hs.role != HandshakeRole::Init || init.alg != cfg.algorithm {
        return Err(ProtocolError::BadHandshake);
    }
    let peer_key = check_auth(init.assoc_id, hs, require)?;
    let (sig_chain, ack_chain) = make_chains(&cfg, rng);
    let reply = handshake_packet(
        &cfg,
        init.assoc_id,
        HandshakeRole::Reply,
        &sig_chain,
        &ack_chain,
        auth,
        rng,
    );
    let assoc = Association::from_chains(
        cfg,
        init.assoc_id,
        sig_chain,
        ack_chain,
        (hs.sig_anchor, hs.sig_anchor_index),
        (hs.ack_anchor, hs.ack_anchor_index),
    );
    Ok((assoc, reply, peer_key))
}

impl Handshaker {
    /// The association id this handshake negotiates.
    #[must_use]
    pub fn assoc_id(&self) -> u64 {
        self.assoc_id
    }

    /// Initiator side: process the HS2 reply and stand up the association.
    pub fn complete(
        self,
        reply: &Packet,
        require: AuthRequirement<'_>,
    ) -> Result<(Association, Option<PublicKey>), ProtocolError> {
        let Body::Handshake(hs) = &reply.body else {
            return Err(ProtocolError::BadHandshake);
        };
        if hs.role != HandshakeRole::Reply
            || reply.assoc_id != self.assoc_id
            || reply.alg != self.cfg.algorithm
        {
            return Err(ProtocolError::BadHandshake);
        }
        let peer_key = check_auth(reply.assoc_id, hs, require)?;
        let assoc = Association::from_chains(
            self.cfg,
            self.assoc_id,
            self.sig_chain,
            self.ack_chain,
            (hs.sig_anchor, hs.sig_anchor_index),
            (hs.ack_anchor, hs.ack_anchor_index),
        );
        Ok((assoc, peer_key))
    }
}

/// A host's own signature and acknowledgment chains per `cfg`, derived in
/// one two-lane pass whatever the storage layout (handshake and renewal).
pub(crate) fn make_chains(cfg: &Config, rng: &mut dyn RngCore) -> (HashChain, HashChain) {
    let mut sig_seed = [0u8; 32];
    let mut ack_seed = [0u8; 32];
    rng.fill_bytes(&mut sig_seed);
    rng.fill_bytes(&mut ack_seed);
    let mut chains = HashChain::from_seeds_batch(
        cfg.algorithm,
        cfg.chain_len,
        cfg.chain_storage,
        &[
            (ChainKind::RoleBoundSignature, &sig_seed),
            (ChainKind::RoleBoundAck, &ack_seed),
        ],
    );
    let ack = chains.pop().expect("two chains requested");
    let sig = chains.pop().expect("two chains requested");
    (sig, ack)
}

fn handshake_packet(
    cfg: &Config,
    assoc_id: u64,
    role: HandshakeRole,
    sig_chain: &HashChain,
    ack_chain: &HashChain,
    auth: Option<&dyn Signer>,
    rng: &mut dyn RngCore,
) -> Packet {
    let mut hs = Handshake {
        role,
        sig_anchor: sig_chain.anchor(),
        sig_anchor_index: sig_chain.anchor_index(),
        ack_anchor: ack_chain.anchor(),
        ack_anchor_index: ack_chain.anchor_index(),
        auth: None,
    };
    if let Some(signer) = auth {
        let msg = hs.signed_bytes(assoc_id);
        let signature = signer.sign(cfg.algorithm, &msg, rng);
        let key = signer.verifying_key();
        hs.auth = Some(HandshakeAuth {
            scheme: key.scheme_tag(),
            public_key: key.to_bytes(),
            signature,
        });
    }
    Packet {
        assoc_id,
        alg: cfg.algorithm,
        chain_index: 0,
        body: Body::Handshake(hs),
    }
}

fn check_auth(
    assoc_id: u64,
    hs: &Handshake,
    require: AuthRequirement<'_>,
) -> Result<Option<PublicKey>, ProtocolError> {
    match require {
        AuthRequirement::None => Ok(None),
        AuthRequirement::AnyKey => {
            let auth = hs.auth.as_ref().ok_or(ProtocolError::BadAuth)?;
            let key = PublicKey::from_bytes(auth.scheme, &auth.public_key)
                .ok_or(ProtocolError::BadAuth)?;
            verify_hs(assoc_id, hs, &key, &auth.signature)?;
            Ok(Some(key))
        }
        AuthRequirement::Pinned(expected) => {
            let auth = hs.auth.as_ref().ok_or(ProtocolError::BadAuth)?;
            let key = PublicKey::from_bytes(auth.scheme, &auth.public_key)
                .ok_or(ProtocolError::BadAuth)?;
            if &key != expected {
                return Err(ProtocolError::BadAuth);
            }
            verify_hs(assoc_id, hs, &key, &auth.signature)?;
            Ok(Some(key))
        }
    }
}

fn verify_hs(
    assoc_id: u64,
    hs: &Handshake,
    key: &PublicKey,
    signature: &[u8],
) -> Result<(), ProtocolError> {
    let msg = hs.signed_bytes(assoc_id);
    // The signature hashes with the association's algorithm; re-derive it
    // from the anchor length (each algorithm has a distinct digest size).
    let alg = match hs.sig_anchor.len() {
        20 => alpha_crypto::Algorithm::Sha1,
        32 => alpha_crypto::Algorithm::Sha256,
        16 => alpha_crypto::Algorithm::MmoAes,
        _ => return Err(ProtocolError::BadAuth),
    };
    if key.verify(alg, &msg, signature) {
        Ok(())
    } else {
        Err(ProtocolError::BadAuth)
    }
}
