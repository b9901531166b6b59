//! The signing side of one simplex protected channel.
//!
//! Owns the signature hash chain and drives the S1 → (A1) → S2 → (A2)
//! exchange of Figs. 2 and 3. One exchange is outstanding at a time — the
//! paper's S1/A1 phase is strictly sequential (§3.3.1); throughput comes
//! from packing many messages into one exchange (ALPHA-C / ALPHA-M), not
//! from pipelining exchanges.

use std::sync::Arc;

use alpha_crypto::chain::{ChainError, ChainVerifier, HashChain, Role};
use alpha_crypto::merkle::MerkleTree;
use alpha_crypto::preack::AckDisclosure;
use alpha_crypto::{hmac, Digest};
use alpha_wire::{
    encode, limits, A2DisclosureView, BodyView, PacketList, PacketView, PreSignature,
    TreeDescriptor,
};

use crate::exchange::{chain_step, Commit, Disclosure};
use crate::outbox::Outbox;
use crate::{Config, MacScheme, Mode, ProtocolError, Reliability, Timestamp};

/// Events surfaced to the application by the signing side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignerEvent {
    /// The verifier confirmed receipt of message `seq`.
    Acked(u32),
    /// The verifier reported message `seq` invalid or missing; a
    /// retransmission has been scheduled.
    Nacked(u32),
    /// Every message of the outstanding exchange is confirmed (reliable)
    /// or dispatched (unreliable); the channel is idle again.
    ExchangeComplete,
    /// The exchange was dropped after exhausting retransmissions.
    ExchangeAbandoned,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExchangeState {
    AwaitA1,
    AwaitA2,
}

struct Exchange {
    mode: Mode,
    reliability: Reliability,
    /// The S1, encoded once at sign time; the timer resends it until the
    /// A1 arrives.
    s1: Vec<u8>,
    /// Every S2 of the exchange — key, seq, authentication path and
    /// payload — encoded once at sign time, in seq order. Outboxes that
    /// send them share this buffer ([`Outbox`]); the exchange keeps it for
    /// retransmission until it ends.
    s2s: Arc<PacketList>,
    /// Payload bytes of the bundle, and nodes of its Merkle trees (none
    /// for Base / ALPHA-C): what Table 2 counts the signer buffering.
    payload_bytes: usize,
    tree_nodes: usize,
    state: ExchangeState,
    commit: Option<Commit>,
    acked: Vec<bool>,
    last_tx: Timestamp,
    retries: u32,
}

/// The signer half of a simplex channel: signs outgoing messages with its
/// own signature chain and authenticates the peer's acknowledgment chain.
pub struct SignerChannel {
    assoc_id: u64,
    cfg: Config,
    chain: HashChain,
    peer_ack: ChainVerifier,
    /// The peer's acknowledgment chain before its latest renewal, kept
    /// while the exchange outstanding at that renewal lasts: the peer
    /// answers it from whichever chain it held when the S1 arrived.
    /// Boxed: it is there only across a renewal, and every resident
    /// flow carries the field.
    peer_ack_prev: Option<Box<ChainVerifier>>,
    pending: Option<Exchange>,
    /// The verdicts of the A2 being judged, kept so judging one
    /// allocates nothing.
    verdicts: Vec<(u32, bool)>,
    /// The last exchange's S2 buffer, taken back for the next exchange
    /// to encode into once no outbox shares it: a flow signing bundle
    /// after bundle neither allocates nor frees one per exchange.
    spare: Option<Arc<PacketList>>,
}

/// Authenticate an element of the peer's acknowledgment chain by `step`:
/// on the current anchor, else on the one a renewal replaced (if still
/// kept). Each tracker only moves when `step` accepts on it.
fn peer_ack_step<R>(
    current: &mut ChainVerifier,
    prev: Option<&mut ChainVerifier>,
    step: impl Fn(&mut ChainVerifier) -> Result<R, ChainError>,
) -> Result<R, ChainError> {
    step(current).or_else(|e| match prev {
        Some(prev) => step(prev).map_err(|_| e),
        None => Err(e),
    })
}

impl SignerChannel {
    /// Build from the signer's own chain and the peer's acknowledgment
    /// anchor (learned in the bootstrap handshake).
    #[must_use]
    pub fn new(
        assoc_id: u64,
        cfg: Config,
        chain: HashChain,
        peer_ack_anchor: Digest,
        peer_ack_anchor_index: u64,
    ) -> SignerChannel {
        let peer_ack = ChainVerifier::new(
            cfg.algorithm,
            alpha_crypto::chain::ChainKind::RoleBoundAck,
            peer_ack_anchor,
            peer_ack_anchor_index,
        );
        SignerChannel {
            assoc_id,
            cfg,
            chain,
            peer_ack,
            peer_ack_prev: None,
            pending: None,
            verdicts: Vec::new(),
            spare: None,
        }
    }

    /// Association this channel belongs to.
    #[must_use]
    pub fn assoc_id(&self) -> u64 {
        self.assoc_id
    }

    /// True when no exchange is outstanding.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.pending.is_none()
    }

    /// Retune the retransmission timeout at runtime. The hook for the
    /// adaptation plane (`alpha-adapt`): an RFC 6298 estimate measured on
    /// live exchanges replaces the configured constant. Takes effect from
    /// the next (re)transmission; the value is clamped to at least 1 ms
    /// so a bad estimate cannot spin the timer.
    pub fn set_rto_micros(&mut self, rto_micros: u64) {
        self.cfg.rto_micros = rto_micros.max(1_000);
    }

    /// The currently effective retransmission timeout (µs).
    #[must_use]
    pub fn rto_micros(&self) -> u64 {
        self.cfg.rto_micros
    }

    /// Exchange pairs left on the signature chain.
    #[must_use]
    pub fn remaining_exchanges(&self) -> u64 {
        self.chain.remaining_pairs()
    }

    /// Bytes currently buffered for the outstanding exchange: the messages
    /// plus one MAC key — the signer's `n(m+h)` of Table 2 (ALPHA-M holds
    /// the tree too, its `(2n−1)h`).
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        let h = self.cfg.algorithm.digest_len();
        match &self.pending {
            None => 0,
            Some(ex) => {
                let commit = ex.commit.as_ref().map_or(0, Commit::stored_bytes);
                ex.payload_bytes + h + ex.tree_nodes * h + commit
            }
        }
    }

    /// Start a signature exchange over `messages` in `mode`: the S1
    /// goes to `out`, and every S2 is encoded now, for the A1 to release.
    /// `Base` requires exactly one message; `Cumulative` and `Merkle`
    /// accept up to the wire limits.
    pub fn sign_into(
        &mut self,
        messages: &[&[u8]],
        mode: Mode,
        now: Timestamp,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        if self.pending.is_some() {
            return Err(ProtocolError::ExchangeInProgress);
        }
        if messages.is_empty() {
            return Err(ProtocolError::NoMessages);
        }
        match mode {
            Mode::Base if messages.len() != 1 => return Err(ProtocolError::TooManyMessages),
            Mode::Cumulative if messages.len() > limits::MAX_PRESIGS => {
                return Err(ProtocolError::TooManyMessages)
            }
            Mode::Merkle if messages.len() as u64 > u64::from(limits::MAX_LEAVES) => {
                return Err(ProtocolError::TooManyMessages)
            }
            Mode::CumulativeMerkle { leaves_per_tree }
                if (leaves_per_tree == 0
                    || messages.len() as u64 > u64::from(limits::MAX_LEAVES)
                    || messages.len().div_ceil(leaves_per_tree) > limits::MAX_PRESIGS) =>
            {
                return Err(ProtocolError::TooManyMessages);
            }
            _ => {}
        }
        if messages.iter().any(|m| m.len() > limits::MAX_PAYLOAD) {
            return Err(ProtocolError::PayloadTooLarge);
        }
        if self.chain.remaining_pairs() == 0 {
            return Err(ProtocolError::ChainExhausted);
        }
        let ((announce_index, announce), (key_index, key)) = self
            .chain
            .disclose_pair()
            .map_err(|_| ProtocolError::ChainExhausted)?;
        // Signed after every renewal the peer announced so far: answered
        // from its current chain only.
        self.peer_ack_prev = None;
        debug_assert_eq!(alpha_crypto::chain::role_of(announce_index), Role::Announce);

        let alg = self.cfg.algorithm;
        let (presig, trees, leaves_per_tree) = match mode {
            Mode::Base | Mode::Cumulative => {
                let macs = match self.cfg.mac_scheme {
                    MacScheme::Hmac => {
                        // Every MAC of the bundle shares the chain-element
                        // key, so the whole pre-signature hashes in batched
                        // lane sweeps (byte-identical to `message_mac`).
                        let seq_be: Vec<[u8; 4]> = (0..messages.len() as u32)
                            .map(|s| s.to_be_bytes())
                            .collect();
                        let parts: Vec<[&[u8]; 2]> = seq_be
                            .iter()
                            .zip(messages)
                            .map(|(s, m)| [s.as_slice(), *m])
                            .collect();
                        let msgs: Vec<&[&[u8]]> = parts.iter().map(|p| p.as_slice()).collect();
                        let keys: Vec<&[u8]> = vec![key.as_bytes(); messages.len()];
                        let mut macs = vec![Digest::zero(alg); messages.len()];
                        alpha_crypto::backend::mac_parts_batch(alg, &keys, &msgs, &mut macs);
                        macs
                    }
                    MacScheme::Prefix => messages
                        .iter()
                        .enumerate()
                        .map(|(seq, m)| message_mac(alg, MacScheme::Prefix, &key, seq as u32, m))
                        .collect(),
                };
                (PreSignature::Cumulative(macs), Vec::new(), 1)
            }
            Mode::Merkle => {
                let tree = MerkleTree::from_messages(alg, messages);
                let root = tree.keyed_root(&key);
                (
                    PreSignature::MerkleRoot {
                        root,
                        leaves: messages.len() as u32,
                    },
                    vec![tree],
                    messages.len().max(1),
                )
            }
            Mode::CumulativeMerkle { leaves_per_tree } => {
                let trees: Vec<MerkleTree> = messages
                    .chunks(leaves_per_tree)
                    .map(|chunk| MerkleTree::from_messages(alg, chunk))
                    .collect();
                let descriptors = trees
                    .iter()
                    .map(|t| TreeDescriptor {
                        root: t.keyed_root(&key),
                        leaves: t.leaf_count() as u32,
                    })
                    .collect();
                (
                    PreSignature::MerkleForest(descriptors),
                    trees,
                    leaves_per_tree,
                )
            }
        };
        // Encoded once, kept for the timer, and copied to the outbox.
        let mut s1 = Vec::with_capacity(encode::s1_len(alg, &presig));
        encode::s1(
            &mut s1,
            alg,
            self.assoc_id,
            announce_index,
            &announce,
            &presig,
        );
        out.own().push(&s1);
        // Everything an S2 carries is known now: encode each once, into
        // one buffer sized for the bundle. Message `seq`'s tree (none in
        // Base / ALPHA-C) and its leaf there:
        let tree_of = |seq: usize| {
            let tree = trees.get(seq / leaves_per_tree)?;
            Some((tree, seq % leaves_per_tree))
        };
        let bytes: usize = messages
            .iter()
            .enumerate()
            .map(|(seq, m)| {
                let depth = tree_of(seq).map_or(0, |(tree, _)| tree.depth());
                encode::s2_len(alg, depth, m.len())
            })
            .sum();
        // No weak references are ever made, so a spare with one strong
        // reference is unshared.
        let mut shared = self
            .spare
            .take()
            .filter(|spare| Arc::strong_count(spare) == 1)
            .unwrap_or_default();
        // Allowlist: `shared` is the spare no outbox shares any more, or
        // new.
        let s2s = Arc::get_mut(&mut shared).expect("an unshared S2 buffer");
        s2s.clear();
        s2s.reserve(messages.len(), bytes);
        for (seq, payload) in messages.iter().enumerate() {
            let path = tree_of(seq).map(|(tree, leaf)| tree.siblings(leaf));
            s2s.push_with(|buf| {
                let (id, seq) = (self.assoc_id, seq as u32);
                match path {
                    Some(path) => encode::s2(buf, alg, id, key_index, &key, seq, path, payload),
                    None => encode::s2(buf, alg, id, key_index, &key, seq, [].into_iter(), payload),
                }
            });
        }
        self.pending = Some(Exchange {
            mode,
            reliability: self.cfg.reliability,
            s1,
            s2s: shared,
            payload_bytes: messages.iter().map(|m| m.len()).sum(),
            tree_nodes: trees
                .iter()
                .map(|t| 2 * t.leaf_count().next_power_of_two() - 1)
                .sum(),
            state: ExchangeState::AwaitA1,
            commit: None,
            acked: vec![false; messages.len()],
            last_tx: now,
            retries: 0,
        });
        Ok(())
    }

    /// Process an A1. On success every S2 of the exchange goes to `out`.
    pub fn handle_a1(
        &mut self,
        pkt: &PacketView<'_>,
        now: Timestamp,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        self.check_packet(pkt)?;
        let BodyView::A1 { element, commit } = &pkt.body else {
            return Err(ProtocolError::UnexpectedPacket);
        };
        let Some(ex) = self.pending.as_mut() else {
            return Err(ProtocolError::NoExchange);
        };
        if ex.state != ExchangeState::AwaitA1 {
            // §3.2.2: after sending S2, further A1 pre-(n)acks are discarded
            // so temporal separation holds.
            return Ok(());
        }
        peer_ack_step(&mut self.peer_ack, self.peer_ack_prev.as_deref_mut(), |v| {
            v.accept_role(pkt.chain_index, element, Role::Announce)
        })?;

        if ex.reliability == Reliability::Reliable {
            // The commitment must be the kind this mode's verdicts need,
            // an AMT one leaf per message.
            let commit = Commit::new(commit).filter(|c| match (ex.mode, c) {
                (Mode::Base | Mode::Cumulative, Commit::Flat(_)) => true,
                (Mode::Merkle | Mode::CumulativeMerkle { .. }, Commit::Amt { leaves, .. }) => {
                    *leaves as usize == ex.acked.len()
                }
                _ => false,
            });
            ex.commit = Some(commit.ok_or(ProtocolError::UnexpectedPacket)?);
        }

        out.share_all(&ex.s2s);
        if ex.reliability == Reliability::Reliable {
            ex.state = ExchangeState::AwaitA2;
            ex.last_tx = now;
            ex.retries = 0;
        } else {
            out.events.push(SignerEvent::ExchangeComplete);
            self.end_exchange();
        }
        Ok(())
    }

    /// Process an A2 (reliable mode): per-message verdicts. Nacked
    /// messages go to `out` for immediate retransmission.
    pub fn handle_a2(
        &mut self,
        pkt: &PacketView<'_>,
        now: Timestamp,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        self.check_packet(pkt)?;
        let BodyView::A2 {
            element,
            disclosure,
        } = &pkt.body
        else {
            return Err(ProtocolError::UnexpectedPacket);
        };
        let Some(ex) = self.pending.as_mut() else {
            return Err(ProtocolError::NoExchange);
        };
        if ex.state != ExchangeState::AwaitA2 {
            return Err(ProtocolError::UnexpectedPacket);
        }
        // Authenticate the disclosed ack-chain element (repeated A2s
        // disclose the same one), then every verdict, before any is
        // applied: a rejected A2 changes nothing.
        peer_ack_step(&mut self.peer_ack, self.peer_ack_prev.as_deref_mut(), |v| {
            chain_step(v, pkt.chain_index, element, Role::Disclose)
        })?;
        let Some(commit) = ex.commit else {
            return Err(ProtocolError::UnexpectedPacket);
        };
        let disclosure = match disclosure {
            A2DisclosureView::Flat { ack, secret } => Disclosure::Flat(AckDisclosure {
                ack: *ack,
                secret: *secret,
            }),
            A2DisclosureView::Amt(items) => Disclosure::Amt(items.items()),
        };
        let alg = self.cfg.algorithm;
        commit.verdicts_into(alg, element, disclosure, &mut self.verdicts)?;

        // A flat verdict covers the whole bundle.
        let n = ex.acked.len() as u32;
        let seqs = |seq: u32| match commit {
            Commit::Flat(_) => 0..n,
            Commit::Amt { .. } => seq..seq + 1,
        };
        let (mut acked, mut nacked) = (false, false);
        for &(seq, ack) in &self.verdicts {
            for seq in seqs(seq) {
                if !ack {
                    out.events.push(SignerEvent::Nacked(seq));
                    nacked = true;
                } else if !std::mem::replace(&mut ex.acked[seq as usize], true) {
                    out.events.push(SignerEvent::Acked(seq));
                    acked = true;
                }
            }
        }

        // Forward progress (fresh acks) resets the abandonment counter, so
        // only a genuinely stalled exchange is dropped.
        if acked {
            ex.retries = 0;
        }
        if nacked {
            ex.retries += 1;
            if ex.retries > self.cfg.max_retries {
                out.events.push(SignerEvent::ExchangeAbandoned);
                self.end_exchange();
                return Ok(());
            }
            let nacks = self.verdicts.iter().filter(|(_, ack)| !ack);
            out.share_picked(&ex.s2s, nacks.flat_map(|&(seq, _)| seqs(seq)));
            ex.last_tx = now;
        }
        if ex.acked.iter().all(|&a| a) {
            out.events.push(SignerEvent::ExchangeComplete);
            self.end_exchange();
        }
        Ok(())
    }

    /// End the outstanding exchange, keeping its S2 buffer as the
    /// spare: an outbox that still shares it sends it first, and the
    /// next exchange reuses it only if none does by then.
    fn end_exchange(&mut self) {
        self.spare = self.pending.take().map(|ex| ex.s2s);
    }

    /// Replace this channel's signature chain (chain renewal). Fails while
    /// an exchange is outstanding — finish or abandon it first.
    pub fn install_chain(&mut self, chain: HashChain) -> Result<(), ProtocolError> {
        if self.pending.is_some() {
            return Err(ProtocolError::ExchangeInProgress);
        }
        self.chain = chain;
        Ok(())
    }

    /// Re-anchor the peer's acknowledgment chain (the peer renewed).
    /// An exchange outstanding now may still be answered from the old
    /// chain — both ends renewing at once cross on the wire — so the old
    /// anchor is kept for it until the next exchange is signed.
    pub fn replace_peer_ack(&mut self, anchor: Digest, anchor_index: u64) {
        let renewed = ChainVerifier::new(
            self.cfg.algorithm,
            alpha_crypto::chain::ChainKind::RoleBoundAck,
            anchor,
            anchor_index,
        );
        let old = std::mem::replace(&mut self.peer_ack, renewed);
        self.peer_ack_prev = self.pending.is_some().then(|| Box::new(old));
    }

    /// Freeze this channel for hibernation. Only an idle channel freezes:
    /// an outstanding exchange holds payloads and timers that are about to
    /// act, so the caller must wait for (or abandon) it first.
    pub(crate) fn freeze(&self) -> Result<crate::freeze::FrozenSigner, ProtocolError> {
        if self.pending.is_some() {
            return Err(ProtocolError::ExchangeInProgress);
        }
        let (peer_ack_index, peer_ack_last) = self.peer_ack.last();
        Ok(crate::freeze::FrozenSigner {
            chain: self.chain.freeze(),
            peer_ack_index,
            peer_ack_last,
            rto_micros: self.cfg.rto_micros,
        })
    }

    /// Rebuild a channel from its frozen record. `chain` is the
    /// already-rehydrated signature chain — the association thaws both
    /// of its chains in one lane-parallel pass before standing the
    /// channels up.
    pub(crate) fn thaw(
        assoc_id: u64,
        cfg: Config,
        frozen: &crate::freeze::FrozenSigner,
        chain: HashChain,
    ) -> SignerChannel {
        let mut ch = SignerChannel::new(
            assoc_id,
            cfg,
            chain,
            frozen.peer_ack_last,
            frozen.peer_ack_index,
        );
        ch.cfg.rto_micros = frozen.rto_micros;
        ch
    }

    /// Drive retransmission timers: packets to (re)send and any
    /// abandonment event go to `out`.
    pub fn poll(&mut self, now: Timestamp, out: &mut Outbox) {
        let Some(ex) = self.pending.as_mut() else {
            return;
        };
        if now.since(ex.last_tx) < self.cfg.rto_micros {
            return;
        }
        if ex.retries >= self.cfg.max_retries {
            out.events.push(SignerEvent::ExchangeAbandoned);
            self.end_exchange();
            return;
        }
        ex.retries += 1;
        ex.last_tx = now;
        match ex.state {
            ExchangeState::AwaitA1 => out.own().push(&ex.s1),
            ExchangeState::AwaitA2 => {
                let unacked = ex.acked.iter().enumerate().filter(|(_, &a)| !a);
                out.share_picked(&ex.s2s, unacked.map(|(seq, _)| seq as u32));
            }
        }
    }

    /// Earliest time at which [`SignerChannel::poll`] will act, if any.
    #[must_use]
    pub fn poll_at(&self) -> Option<Timestamp> {
        self.pending
            .as_ref()
            .map(|ex| ex.last_tx.plus_micros(self.cfg.rto_micros))
    }

    fn check_packet(&self, pkt: &PacketView<'_>) -> Result<(), ProtocolError> {
        if pkt.assoc_id != self.assoc_id {
            return Err(ProtocolError::WrongAssociation);
        }
        if pkt.alg != self.cfg.algorithm {
            return Err(ProtocolError::WrongAlgorithm);
        }
        Ok(())
    }
}

/// The per-message MAC of the Base/ALPHA-C pre-signature over
/// `(seq || m)`, keyed with the undisclosed chain element `h^Ss_{i-1}`.
/// The sequence number is bound so an attacker cannot re-index S2 packets
/// within a cumulative bundle.
#[must_use]
pub fn message_mac(
    alg: alpha_crypto::Algorithm,
    scheme: MacScheme,
    key: &Digest,
    seq: u32,
    message: &[u8],
) -> Digest {
    match scheme {
        MacScheme::Hmac => hmac::mac_parts(alg, key.as_bytes(), &[&seq.to_be_bytes(), message]),
        MacScheme::Prefix => hmac::prefix_mac(alg, key.as_bytes(), &[&seq.to_be_bytes(), message]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Association;
    use alpha_wire::{A2Disclosure, Body};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An A2 with one bad item is refused whole: the genuine A2 that
    /// follows still reports its ack.
    #[test]
    fn rejected_a2_changes_nothing() {
        let cfg = Config::new(alpha_crypto::Algorithm::Sha1)
            .with_chain_len(64)
            .with_reliability(Reliability::Reliable);
        let (t, mut rng) = (Timestamp::ZERO, StdRng::seed_from_u64(3));
        let (mut alice, mut bob) = Association::pair(cfg, 1, &mut rng);
        let msgs: [&[u8]; 4] = [b"m0", b"m1", b"m2", b"m3"];
        let s1 = alice.sign_batch(&msgs, Mode::Merkle, t).unwrap();
        let a1 = bob.handle(&s1, t, &mut rng).unwrap().packet().unwrap();
        let s2s = alice.handle(&a1, t, &mut rng).unwrap().packets;
        let genuine = bob.handle(&s2s[0], t, &mut rng).unwrap().packets.remove(0);

        let mut doctored = genuine.clone();
        let Body::A2 {
            disclosure: A2Disclosure::Amt(items),
            ..
        } = &mut doctored.body
        else {
            panic!("an ALPHA-M verdict discloses AMT items");
        };
        let mut junk = items[0].clone();
        junk.secret[0] ^= 1;
        items.push(junk);

        assert_eq!(
            alice.handle(&doctored, t, &mut rng).unwrap_err(),
            ProtocolError::BadMac
        );
        let events = alice.handle(&genuine, t, &mut rng).unwrap().signer_events;
        assert_eq!(events, [SignerEvent::Acked(0)]);
    }
}
