//! The duplex end-host view of a protected path.
//!
//! Each host runs a [`SignerChannel`] for its outgoing simplex channel and
//! a [`VerifierChannel`] for the incoming one; the four hash-chain anchors
//! `{h^As_n, h^Aa_n, h^Bs_n, h^Ba_n}` of §3.1 are exactly the four chains
//! these two pairs of machines hold between two hosts.

use alpha_crypto::chain::HashChain;
use alpha_crypto::Digest;
use alpha_wire::{Body, Packet};
use rand::RngCore;

use crate::batch::{self, S2BatchItem};
use crate::signer::{SignerChannel, SignerEvent};
use crate::verifier::{S2Verdict, VerifierChannel};
use crate::{bootstrap, renewal, signal::Signal, Config, Mode, ProtocolError, Timestamp};

/// Application-visible outcome of feeding a packet (or timer tick) into an
/// [`Association`].
#[derive(Debug, Default)]
pub struct Response {
    /// Packets to transmit, in order.
    pub packets: Vec<Packet>,
    /// Verified payloads delivered by the incoming channel: `(seq, bytes)`.
    pub deliveries: Vec<(u32, Vec<u8>)>,
    /// Signer-side events (acks, nacks, completion).
    pub signer_events: Vec<SignerEvent>,
    /// True when the incoming bundle completed with this packet.
    pub bundle_complete: bool,
    /// True when this packet carried a chain renewal from the peer, which
    /// has already been applied (the renewal payload is consumed, not
    /// surfaced in `deliveries`).
    pub peer_renewed: bool,
    /// Verified control signals from the peer ([`crate::signal`]),
    /// consumed out of `deliveries`.
    pub signals: Vec<Signal>,
}

impl Response {
    /// First packet to transmit, if any (convenience for linear tests).
    #[must_use]
    pub fn packet(&self) -> Option<Packet> {
        self.packets.first().cloned()
    }

    /// First delivered payload, if any.
    #[must_use]
    pub fn payload(&self) -> Option<&[u8]> {
        self.deliveries.first().map(|(_, p)| p.as_slice())
    }

    fn from_signer(out: crate::signer::SignerOutput) -> Response {
        Response {
            packets: out.packets,
            signer_events: out.events,
            ..Response::default()
        }
    }

    /// One accepted S2's verdict (of an S2 carrying `payload`) and the
    /// replies it sent, with the delivered payload copied out of the
    /// packet.
    fn from_s2(v: S2Verdict<'_>, payload: &[u8], replies: Vec<Packet>) -> Response {
        Response {
            packets: replies,
            deliveries: v
                .delivered
                .map(|p| (v.seq, p.to_vec()))
                .into_iter()
                .collect(),
            bundle_complete: v.bundle_complete,
            peer_renewed: v.peer_renewed,
            signals: v
                .signal
                .then(|| Signal::parse(payload))
                .flatten()
                .into_iter()
                .collect(),
            ..Response::default()
        }
    }
}

/// One host's end of a bootstrapped association.
pub struct Association {
    assoc_id: u64,
    cfg: Config,
    signer: SignerChannel,
    verifier: VerifierChannel,
}

impl Association {
    /// Assemble from freshly generated own chains plus the peer's anchors
    /// (normally called by [`bootstrap`]).
    #[must_use]
    pub fn from_chains(
        cfg: Config,
        assoc_id: u64,
        sig_chain: HashChain,
        ack_chain: HashChain,
        peer_sig_anchor: (Digest, u64),
        peer_ack_anchor: (Digest, u64),
    ) -> Association {
        let signer = SignerChannel::new(
            assoc_id,
            cfg,
            sig_chain,
            peer_ack_anchor.0,
            peer_ack_anchor.1,
        );
        let verifier = VerifierChannel::new(
            assoc_id,
            cfg,
            ack_chain,
            peer_sig_anchor.0,
            peer_sig_anchor.1,
        );
        Association {
            assoc_id,
            cfg,
            signer,
            verifier,
        }
    }

    /// Create a bootstrapped pair of associations in memory (unprotected
    /// handshake, no network). The workhorse of tests and examples.
    #[must_use]
    pub fn pair(cfg: Config, assoc_id: u64, rng: &mut dyn RngCore) -> (Association, Association) {
        let (hs, init_pkt) = bootstrap::initiate(cfg, assoc_id, None, rng);
        // Allowlist: both packets come straight from our own bootstrap
        // with AuthRequirement::None — no network input is involved, so
        // respond/complete cannot fail.
        let (responder, reply_pkt, _) =
            bootstrap::respond(cfg, &init_pkt, None, bootstrap::AuthRequirement::None, rng)
                .expect("in-memory handshake");
        let (initiator, _) = hs
            .complete(&reply_pkt, bootstrap::AuthRequirement::None)
            .expect("in-memory handshake");
        (initiator, responder)
    }

    /// Association identifier.
    #[must_use]
    pub fn assoc_id(&self) -> u64 {
        self.assoc_id
    }

    /// The association's configuration.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Outgoing (signing) channel.
    #[must_use]
    pub fn signer(&mut self) -> &mut SignerChannel {
        &mut self.signer
    }

    /// Incoming (verifying) channel.
    #[must_use]
    pub fn verifier(&mut self) -> &mut VerifierChannel {
        &mut self.verifier
    }

    /// Exchanges left before one of this host's chains runs out: the
    /// minimum over its signature chain (a pair per exchange it signs)
    /// and its acknowledgment chain (a pair per S1 it answers). A one-way
    /// flow runs the sender's signature chain and the receiver's
    /// acknowledgment chain down together, so both ends must renew
    /// ([`Association::begin_renewal`]) before this reaches zero.
    #[must_use]
    pub fn remaining_exchanges(&self) -> u64 {
        self.signer
            .remaining_exchanges()
            .min(self.verifier.remaining_exchanges())
    }

    /// Sign a single message in the association's default mode
    /// (`Mode::Base` signs it alone; the batch modes wrap it in a
    /// one-element bundle). Returns the S1 packet.
    pub fn sign(&mut self, message: &[u8], now: Timestamp) -> Result<Packet, ProtocolError> {
        self.signer.sign(&[message], self.cfg.mode, now)
    }

    /// Sign a batch of messages in `mode` (ALPHA-C or ALPHA-M).
    pub fn sign_batch(
        &mut self,
        messages: &[&[u8]],
        mode: Mode,
        now: Timestamp,
    ) -> Result<Packet, ProtocolError> {
        self.signer.sign(messages, mode, now)
    }

    /// Feed one received packet through the right channel. Verified chain
    /// renewals from the peer ([`crate::renewal`]) are applied in place and
    /// reported via [`Response::peer_renewed`].
    pub fn handle(
        &mut self,
        pkt: &Packet,
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> Result<Response, ProtocolError> {
        match &pkt.body {
            Body::S1 { .. } => Ok(Response {
                packets: self
                    .verifier
                    .handle_s1(pkt, now, rng)?
                    .into_iter()
                    .collect(),
                ..Response::default()
            }),
            Body::S2 {
                key,
                seq,
                path,
                payload,
            } => {
                let item = S2BatchItem {
                    alg: pkt.alg,
                    chain_index: pkt.chain_index,
                    key,
                    seq: *seq,
                    path: path.as_slice().into(),
                    payload,
                };
                self.handle_s2(pkt.assoc_id, &item, now)
            }
            Body::A1 { .. } => Ok(Response::from_signer(self.signer.handle_a1(pkt, now)?)),
            Body::A2 { .. } => Ok(Response::from_signer(self.signer.handle_a2(pkt, now)?)),
            Body::Handshake(_) => Err(ProtocolError::UnexpectedPacket),
        }
    }

    /// Feed the fields of a received S2 through the verifying channel
    /// without materialising an owned [`Packet`], the path and payload
    /// still borrowed from the receive buffer: [`Association::handle_s2`]
    /// for callers holding fields rather than an [`S2BatchItem`].
    #[allow(clippy::too_many_arguments)] // one S2's fields
    pub fn handle_s2_fields(
        &mut self,
        assoc_id: u64,
        chain_index: u64,
        key: &Digest,
        seq: u32,
        path: &[Digest],
        payload: &[u8],
        now: Timestamp,
    ) -> Result<Response, ProtocolError> {
        let item = S2BatchItem {
            alg: self.cfg.algorithm,
            chain_index,
            key,
            seq,
            path: path.into(),
            payload,
        };
        self.handle_s2(assoc_id, &item, now)
    }

    /// One S2, verified as a run of one ([`Association::handle_s2_run`]),
    /// its outcome as a [`Response`]: the delivered payload is copied
    /// out, once.
    pub fn handle_s2(
        &mut self,
        assoc_id: u64,
        item: &S2BatchItem<'_>,
        now: Timestamp,
    ) -> Result<Response, ProtocolError> {
        let mut replies = Vec::new();
        let mut verdict = [Err(ProtocolError::NoExchange)];
        let item = std::slice::from_ref(item);
        self.handle_s2_run(assoc_id, item, now, &mut replies, &mut verdict);
        verdict[0].map(|v| Response::from_s2(v, item[0].payload, replies))
    }

    /// Verify a run of S2s through the incoming channel
    /// ([`VerifierChannel::handle_s2_run`]): item `k`'s outcome to
    /// `verdicts[k]` with its payload still borrowed, the A2 verdicts to
    /// `replies`. Verified renewals and signals are consumed here: a
    /// renewal re-anchors both channels before the next item is
    /// prepared (a control-carrying item is verified on its own,
    /// [`crate::batch`]), a signal is flagged in [`S2Verdict::signal`],
    /// and neither is delivered.
    ///
    /// # Panics
    /// Panics if `items` and `verdicts` differ in length.
    pub fn handle_s2_run<'a>(
        &mut self,
        assoc_id: u64,
        items: &[S2BatchItem<'a>],
        now: Timestamp,
        replies: &mut Vec<Packet>,
        verdicts: &mut [Result<S2Verdict<'a>, ProtocolError>],
    ) {
        assert_eq!(items.len(), verdicts.len(), "one verdict per S2");
        let alg = self.cfg.algorithm;
        let mut rest = verdicts;
        for chunk in batch::chunks(items) {
            let (verdicts, after) = rest.split_at_mut(chunk.len());
            rest = after;
            self.verifier
                .handle_s2_run(assoc_id, chunk, now, replies, verdicts);
            // Only a chunk of one can carry a renewal or a signal.
            let [Ok(v)] = verdicts else { continue };
            let Some(payload) = v.delivered else { continue };
            if let Some(anchors) = renewal::parse(alg, payload) {
                v.delivered = None;
                v.peer_renewed = true;
                self.verifier.replace_peer_sig(anchors.sig.0, anchors.sig.1);
                self.signer.replace_peer_ack(anchors.ack.0, anchors.ack.1);
            } else if Signal::parse(payload).is_some() {
                v.delivered = None;
                v.signal = true;
            }
        }
    }

    /// Drive timers: signer retransmissions, verifier buffer expiry and
    /// verifier timeout-nacks for missing messages.
    pub fn poll(&mut self, now: Timestamp) -> Response {
        let nacks = self.verifier.poll(now);
        let mut resp = Response::from_signer(self.signer.poll(now));
        resp.packets.extend(nacks);
        resp
    }

    /// Earliest time [`Association::poll`] has work to do.
    #[must_use]
    pub fn poll_at(&self) -> Option<Timestamp> {
        self.signer.poll_at()
    }

    /// Retune the signer's retransmission timeout at runtime (see
    /// [`SignerChannel::set_rto_micros`]).
    pub fn set_rto_micros(&mut self, rto_micros: u64) {
        self.signer.set_rto_micros(rto_micros);
    }

    /// Total protocol bytes buffered on this host (Tables 2 and 3).
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        self.signer.buffered_bytes() + self.verifier.buffered_bytes()
    }

    /// Generate fresh chains and the S1 packet announcing them as a
    /// protected renewal message. After the exchange completes (reliable
    /// mode confirms delivery), call [`Association::commit_renewal`].
    pub fn begin_renewal(
        &mut self,
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> Result<(renewal::RenewalOffer, Packet), ProtocolError> {
        let (offer, payload) = renewal::offer(&self.cfg, rng);
        let s1 = self.signer.sign(&[&payload], Mode::Base, now)?;
        Ok((offer, s1))
    }

    /// Switch to the renewed chains (after the renewal message delivered).
    pub fn commit_renewal(&mut self, offer: renewal::RenewalOffer) -> Result<(), ProtocolError> {
        self.signer.install_chain(offer.sig_chain)?;
        self.verifier.install_chain(offer.ack_chain);
        Ok(())
    }

    /// Sign a control signal toward the peer (and every on-path relay).
    pub fn send_signal(&mut self, sig: &Signal, now: Timestamp) -> Result<Packet, ProtocolError> {
        self.signer.sign(&[&sig.encode()], Mode::Base, now)
    }

    /// Freeze this association into a compact hibernation record
    /// ([`crate::freeze`]). Fails with
    /// [`ProtocolError::ExchangeInProgress`] while a signer exchange is
    /// outstanding; the verifier side freezes even mid-bundle.
    pub fn freeze(&self) -> Result<crate::freeze::FrozenAssociation, ProtocolError> {
        Ok(crate::freeze::FrozenAssociation {
            assoc_id: self.assoc_id,
            alg: self.cfg.algorithm,
            signer: self.signer.freeze()?,
            verifier: self.verifier.freeze(),
        })
    }

    /// Rebuild an association from its frozen record. `cfg` supplies the
    /// shared tunables (they are engine-wide, not per-flow, so they do not
    /// hibernate); the signer's adaptively tuned RTO is restored from the
    /// record. The thawed association is decision-identical to one that
    /// never slept.
    #[must_use]
    pub fn thaw(cfg: Config, frozen: &crate::freeze::FrozenAssociation) -> Association {
        debug_assert_eq!(cfg.algorithm, frozen.alg);
        // Both chains resume from the checkpoint their record carries and
        // hash nothing here.
        let (sig_chain, ack_chain) = (frozen.signer.chain.thaw(), frozen.verifier.ack_chain.thaw());
        Association {
            assoc_id: frozen.assoc_id,
            cfg,
            signer: SignerChannel::thaw(frozen.assoc_id, cfg, &frozen.signer, sig_chain),
            verifier: VerifierChannel::thaw(frozen.assoc_id, cfg, &frozen.verifier, ack_chain),
        }
    }
}
