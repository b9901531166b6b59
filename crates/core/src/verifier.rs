//! The verifying side of one simplex protected channel.
//!
//! Owns the acknowledgment hash chain, authenticates the peer's signature
//! chain, buffers pre-signatures from S1 packets, and checks every S2
//! against them. In reliable mode it commits to verdicts in the A1 packet
//! (flat pre-(n)acks or an AMT) and discloses them in A2 packets.
//!
//! The verifier is also where ALPHA's flooding defence lives: an
//! unwilling receiver simply never answers S1 with A1
//! ([`VerifierChannel::set_accepting`]), and with relays enforcing the
//! missing A1, unsolicited data dies one hop from its source (§3.5).

use alpha_crypto::amt::AckMerkleTree;
use alpha_crypto::chain::{ChainVerifier, HashChain, Role};
use alpha_crypto::preack::{PreAckPair, PreAckSecrets};
use alpha_crypto::Digest;
use alpha_wire::{limits, A2Disclosure, AckCommit, Body, Packet, PreSignature};
use rand::RngCore;

use crate::batch::{self, S2BatchItem, S2Check, RUN};
use crate::exchange::{self, Announced, Presig};
use crate::{Config, ProtocolError, Reliability, Timestamp};

/// What the verifying side made of one S2 it accepted
/// ([`VerifierChannel::handle_s2_run`]): a small `Copy` value. The A2
/// verdict a reliable flow sends back goes on the run's reply list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct S2Verdict<'a> {
    /// The S2's message index within its bundle.
    pub seq: u32,
    /// The verified payload, borrowed from the packet, on its first
    /// delivery only — a duplicate delivers nothing, and neither does a
    /// signal or renewal an [`crate::Association`] consumed.
    pub delivered: Option<&'a [u8]>,
    /// This S2 completed its bundle.
    pub bundle_complete: bool,
    /// The payload was a control signal the [`crate::Association`]
    /// consumed; [`crate::signal::Signal::parse`] reads it from the
    /// S2's payload.
    pub signal: bool,
    /// The payload was a chain renewal the [`crate::Association`] has
    /// applied.
    pub peer_renewed: bool,
}

/// The verifier's undisclosed verdict commitments for one exchange.
#[derive(Clone)]
pub(crate) enum AckState {
    /// Unreliable: nothing to disclose.
    None,
    /// Flat pre-(n)ack (Base / ALPHA-C reliable).
    Flat {
        pair: PreAckPair,
        secrets: PreAckSecrets,
        verdict_sent: bool,
    },
    /// AMT (ALPHA-M reliable).
    Amt(AckMerkleTree),
}

/// One flag per covered message — whether its S2 has verified — packed
/// eight to a byte as the frozen record writes them: message `i` is bit
/// `i % 8` of byte `i / 8`, and the last byte's bits past the count stay
/// zero. A bundle claiming `MAX_LEAVES` messages costs 2 MiB, not 16.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Received {
    bits: Vec<u8>,
    len: usize,
}

impl Received {
    /// `len` flags, none set.
    pub(crate) fn none(len: usize) -> Received {
        Received {
            bits: vec![0; len.div_ceil(8)],
            len,
        }
    }

    /// `len` flags from their packed bytes; `None` unless there are
    /// exactly enough bytes and every padding bit is zero.
    pub(crate) fn from_bits(bits: &[u8], len: usize) -> Option<Received> {
        let used = len % 8;
        let padded = bits
            .last()
            .is_some_and(|&last| used != 0 && last >> used != 0);
        (bits.len() == len.div_ceil(8) && !padded).then(|| Received {
            bits: bits.to_vec(),
            len,
        })
    }

    /// Flags from one `bool` per message.
    #[cfg(test)]
    pub(crate) fn from_flags(flags: &[bool]) -> Received {
        let mut r = Received::none(flags.len());
        for (i, _) in flags.iter().enumerate().filter(|(_, &f)| f) {
            r.set(i);
        }
        r
    }

    /// Number of flags.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The packed bytes.
    pub(crate) fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// Whether message `i` has arrived.
    fn get(&self, i: usize) -> bool {
        self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Set flag `i` (in range); true when it was clear.
    fn set(&mut self, i: usize) -> bool {
        let byte = &mut self.bits[i / 8];
        let mask = 1 << (i % 8);
        let first = *byte & mask == 0;
        *byte |= mask;
        first
    }

    /// Flags still clear.
    fn count_missing(&self) -> usize {
        self.len
            - self
                .bits
                .iter()
                .map(|b| b.count_ones() as usize)
                .sum::<usize>()
    }

    /// The messages not yet arrived, in order.
    fn missing(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).filter(|&i| !self.get(i)).map(|i| i as u32)
    }
}

/// One exchange the verifier answered with an A1: live in the channel,
/// and as it is in a frozen record ([`crate::freeze`]) when the flow
/// sleeps mid-bundle.
#[derive(Clone)]
pub(crate) struct BufferedExchange {
    pub(crate) s1: Announced,
    /// Stored A1 for idempotent replies to duplicate S1s.
    pub(crate) a1: Packet,
    pub(crate) ack_key_index: u64,
    pub(crate) ack_key: Digest,
    pub(crate) ack: AckState,
    received: Received,
    /// `received` flags still clear, so completion is one comparison
    /// on every verified S2 rather than a scan of up to `MAX_LEAVES`.
    missing: usize,
    pub(crate) created_at: Timestamp,
    /// Set once at least one S2 arrived (the signer is in its burst phase,
    /// so missing sequence numbers indicate loss rather than not-yet-sent).
    pub(crate) first_s2_at: Option<Timestamp>,
    /// Last time timeout-nacks were emitted, to pace them at one RTO.
    pub(crate) last_nack_at: Timestamp,
}

impl BufferedExchange {
    /// The one way in, for an S1 just answered and a record just decoded
    /// alike: the missing count is taken from `received`, and no S2 has
    /// arrived or been nacked yet (a decoded record restores both times).
    pub(crate) fn new(
        s1: Announced,
        a1: Packet,
        ack_key_index: u64,
        ack_key: Digest,
        ack: AckState,
        received: Received,
        created_at: Timestamp,
    ) -> BufferedExchange {
        BufferedExchange {
            s1,
            a1,
            ack_key_index,
            ack_key,
            ack,
            missing: received.count_missing(),
            received,
            created_at,
            first_s2_at: None,
            last_nack_at: Timestamp::ZERO,
        }
    }

    /// One flag per covered message: whether its S2 has verified.
    pub(crate) fn received(&self) -> &Received {
        &self.received
    }

    /// Mark `seq` (in range) received; true on its first arrival.
    fn receive(&mut self, seq: u32) -> bool {
        let first = self.received.set(seq as usize);
        self.missing -= usize::from(first);
        first
    }
}

/// The verifier half of a simplex channel.
pub struct VerifierChannel {
    assoc_id: u64,
    cfg: Config,
    ack_chain: HashChain,
    peer_sig: ChainVerifier,
    current: Option<BufferedExchange>,
    /// The most recently superseded exchange: S2 packets that were
    /// overtaken by the next exchange's S1 (reordering on multi-hop
    /// paths) still verify against it.
    previous: Option<BufferedExchange>,
    accepting: bool,
    /// Exchanges expire after this many microseconds without completing.
    exchange_ttl: u64,
}

impl VerifierChannel {
    /// Build from the verifier's own acknowledgment chain and the peer's
    /// signature anchor.
    #[must_use]
    pub fn new(
        assoc_id: u64,
        cfg: Config,
        ack_chain: HashChain,
        peer_sig_anchor: Digest,
        peer_sig_anchor_index: u64,
    ) -> VerifierChannel {
        let peer_sig = ChainVerifier::new(
            cfg.algorithm,
            alpha_crypto::chain::ChainKind::RoleBoundSignature,
            peer_sig_anchor,
            peer_sig_anchor_index,
        );
        VerifierChannel {
            assoc_id,
            cfg,
            ack_chain,
            peer_sig,
            current: None,
            previous: None,
            accepting: true,
            exchange_ttl: cfg
                .rto_micros
                .saturating_mul(u64::from(cfg.max_retries) + 5),
        }
    }

    /// Declare (un)willingness to receive. While `false`, S1 packets are
    /// silently ignored — the receiver-consent flooding defence of §3.5.
    pub fn set_accepting(&mut self, accepting: bool) {
        self.accepting = accepting;
    }

    /// Exchanges this channel can still answer: pairs left on its
    /// acknowledgment chain, one disclosed per accepted S1.
    #[must_use]
    pub fn remaining_exchanges(&self) -> u64 {
        self.ack_chain.remaining_pairs()
    }

    /// Bytes buffered for the current exchange: the verifier's `n·h` of
    /// Table 2 (one MAC per message in Base/ALPHA-C, a single root in
    /// ALPHA-M), plus acknowledgment state (Table 3).
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        let h = self.cfg.algorithm.digest_len();
        match &self.current {
            None => 0,
            Some(ex) => {
                let ack = match &ex.ack {
                    AckState::None => 0,
                    AckState::Flat { pair, secrets, .. } => {
                        pair.stored_bytes() + secrets.stored_bytes()
                    }
                    AckState::Amt(amt) => amt.stored_bytes(),
                };
                ex.s1.presig.stored_bytes(h) + ack
            }
        }
    }

    /// Process an S1 packet. Returns the A1 reply (or nothing while
    /// unwilling to receive).
    pub fn handle_s1(
        &mut self,
        pkt: &Packet,
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> Result<Option<Packet>, ProtocolError> {
        self.check_packet(pkt)?;
        let Body::S1 { element, presig } = &pkt.body else {
            return Err(ProtocolError::UnexpectedPacket);
        };
        if !self.accepting {
            return Ok(None);
        }
        // Duplicate of the current exchange's S1 (lost A1): replay the A1.
        if let Some(ex) = &self.current {
            if ex.s1.index == pkt.chain_index {
                return Ok(Some(ex.a1.clone()));
            }
        }
        let covered = presig.covered();
        if covered == 0 || covered > limits::MAX_LEAVES {
            return Err(ProtocolError::TooManyMessages);
        }
        // A spent acknowledgment chain refuses the S1 before the peer's
        // chain tracker moves, so the S1 can be retried once this end
        // has renewed.
        if self.ack_chain.remaining_pairs() == 0 {
            return Err(ProtocolError::ChainExhausted);
        }
        self.peer_sig
            .accept_role(pkt.chain_index, element, Role::Announce)?;

        let alg = self.cfg.algorithm;
        // Reliable mode commits to verdicts: a flat pre-(n)ack pair for
        // MACs, an AMT over the bundle for Merkle roots.
        let reliable = self.cfg.reliability == Reliability::Reliable;
        let flat = matches!(presig, PreSignature::Cumulative(_));
        let presig = Presig::new(presig.clone()).ok_or(ProtocolError::UnexpectedPacket)?;
        let ((a_index, a_element), (ack_key_index, ack_key)) = self
            .ack_chain
            .disclose_pair()
            .map_err(|_| ProtocolError::ChainExhausted)?;

        let (ack, commit) = if !reliable {
            (AckState::None, AckCommit::None)
        } else if flat {
            let (pair, secrets) = alpha_crypto::preack::generate(alg, &ack_key, rng);
            let commit = AckCommit::Flat {
                pre_ack: pair.pre_ack,
                pre_nack: pair.pre_nack,
            };
            let ack = AckState::Flat {
                pair,
                secrets,
                verdict_sent: false,
            };
            (ack, commit)
        } else {
            let amt = AckMerkleTree::generate(alg, covered as usize, rng);
            let root = amt.keyed_root(&ack_key);
            let commit = AckCommit::Amt {
                root,
                leaves: covered,
            };
            (AckState::Amt(amt), commit)
        };

        let a1 = Packet {
            assoc_id: self.assoc_id,
            alg,
            chain_index: a_index,
            body: Body::A1 {
                element: a_element,
                commit,
            },
        };
        let s1 = Announced {
            index: pkt.chain_index,
            announce: *element,
            presig,
        };
        let received = Received::none(covered as usize);
        let ex = BufferedExchange::new(s1, a1.clone(), ack_key_index, ack_key, ack, received, now);
        self.previous = self.current.replace(ex);
        Ok(Some(a1))
    }

    /// Verify a run of S2s of association `assoc_id`: authenticate each
    /// disclosed key, check each message against the buffered
    /// pre-signature, mark deliveries and (in reliable mode) disclose
    /// verdicts. Item `k`'s outcome goes to `verdicts[k]`; the A2
    /// verdicts go to `replies`, in the order their S2s came.
    ///
    /// The run is verified in chunks of up to a bundle: every item of a
    /// chunk is prepared in order (exchange match, key authentication,
    /// shape checks), the chunk's MACs and keyed Merkle roots are
    /// computed in one batched sweep ([`crate::batch`]), then every item
    /// is finished in order. Finishing an item changes nothing a later
    /// item's prepare reads, so outcomes are exactly those of feeding the
    /// items one at a time — which is what a run of one does. Payloads
    /// stay borrowed: the verifier copies nothing.
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
        for (chunk, verdicts) in items.chunks(RUN).zip(verdicts.chunks_mut(RUN)) {
            let mut prepared = [Err(ProtocolError::WrongAssociation); RUN];
            if assoc_id == self.assoc_id {
                for (slot, item) in prepared.iter_mut().zip(chunk) {
                    *slot = self.s2_prepare(item);
                }
            }
            let check = |k: usize| prepared[k].ok().and_then(|(_, check)| check);
            let mut passed = [false; RUN];
            let (alg, scheme) = (self.cfg.algorithm, self.cfg.mac_scheme);
            batch::run_checks(alg, scheme, chunk, check, &mut passed[..chunk.len()]);
            for (k, (item, verdict)) in chunk.iter().zip(verdicts).enumerate() {
                *verdict = prepared[k].and_then(|(in_current, _)| {
                    self.s2_finish(in_current, item.seq, passed[k], item.payload, now, replies)
                });
            }
        }
    }

    /// Prepare one S2: find its exchange and authenticate its key.
    /// Returns whether the exchange is the current one and the check the
    /// message still owes (`None`: its path has the wrong shape, so it
    /// fails without hashing).
    fn s2_prepare(
        &mut self,
        item: &S2BatchItem<'_>,
    ) -> Result<(bool, Option<S2Check>), ProtocolError> {
        if item.alg != self.cfg.algorithm {
            return Err(ProtocolError::WrongAlgorithm);
        }
        let (in_current, ex) = exchange::claimed(
            self.current.as_ref(),
            self.previous.as_ref(),
            |ex| &ex.s1,
            item.chain_index,
        )
        .ok_or(ProtocolError::NoExchange)?;
        // A seq outside the bundle is refused before its key is looked
        // at, so it moves no chain tracker.
        if item.seq as usize >= ex.received.len() {
            return Err(ProtocolError::BadSeq);
        }
        let check = ex
            .s1
            .s2_check(self.cfg.algorithm, &mut self.peer_sig, in_current, item)?;
        Ok((in_current, check))
    }

    /// Finish one prepared S2 whose check came out `valid`: mark its
    /// delivery, build the verdict and put its A2, if the mode sends
    /// one, on `replies`.
    fn s2_finish<'a>(
        &mut self,
        in_current: bool,
        seq: u32,
        valid: bool,
        payload: &'a [u8],
        now: Timestamp,
        replies: &mut Vec<Packet>,
    ) -> Result<S2Verdict<'a>, ProtocolError> {
        let mut verdict = S2Verdict {
            seq,
            delivered: None,
            bundle_complete: false,
            signal: false,
            peer_renewed: false,
        };
        if !valid {
            // Reliable mode: disclose a nack so the signer retransmits
            // without waiting for its timer; unreliable mode: drop.
            let nack = self.make_verdict(in_current, seq, false);
            return match nack {
                Some(reply) => {
                    replies.push(reply);
                    Ok(verdict)
                }
                None => Err(ProtocolError::BadMac),
            };
        }
        // Allowlist: prepare matched this exchange, and no S2 releases
        // an exchange.
        let ex = if in_current {
            self.current.as_mut().expect("still current")
        } else {
            self.previous.as_mut().expect("still previous")
        };
        if ex.first_s2_at.is_none() {
            ex.first_s2_at = Some(now);
        }
        let first_time = ex.receive(seq);
        verdict.delivered = first_time.then_some(payload);
        verdict.bundle_complete = first_time && ex.missing == 0;
        replies.extend(self.make_verdict(in_current, seq, true));
        Ok(verdict)
    }

    /// Replace this channel's acknowledgment chain (chain renewal).
    pub fn install_chain(&mut self, ack_chain: HashChain) {
        self.ack_chain = ack_chain;
    }

    /// Re-anchor the peer's signature chain (the peer renewed). Clears any
    /// buffered exchange: subsequent S1 packets use the new chain.
    pub fn replace_peer_sig(&mut self, anchor: Digest, anchor_index: u64) {
        self.peer_sig = ChainVerifier::new(
            self.cfg.algorithm,
            alpha_crypto::chain::ChainKind::RoleBoundSignature,
            anchor,
            anchor_index,
        );
        self.current = None;
        self.previous = None;
    }

    /// Freeze this channel for hibernation. Unlike the signer side this
    /// always succeeds: buffered exchanges (a flow asleep mid-bundle)
    /// freeze as they are, so a late S2 after thaw verifies exactly as it
    /// would have against the live channel.
    pub(crate) fn freeze(&self) -> crate::freeze::FrozenVerifier {
        let (peer_sig_index, peer_sig_last) = self.peer_sig.last();
        crate::freeze::FrozenVerifier {
            ack_chain: self.ack_chain.freeze(),
            peer_sig_index,
            peer_sig_last,
            accepting: self.accepting,
            current: self.current.clone(),
            previous: self.previous.clone(),
        }
    }

    /// Rebuild a channel from its frozen record. `ack_chain` is the
    /// already-rehydrated acknowledgment chain — the association thaws
    /// both of its chains in one lane-parallel pass before standing the
    /// channels up.
    pub(crate) fn thaw(
        assoc_id: u64,
        cfg: Config,
        frozen: &crate::freeze::FrozenVerifier,
        ack_chain: HashChain,
    ) -> VerifierChannel {
        let mut ch = VerifierChannel::new(
            assoc_id,
            cfg,
            ack_chain,
            frozen.peer_sig_last,
            frozen.peer_sig_index,
        );
        ch.accepting = frozen.accepting;
        ch.current = frozen.current.clone();
        ch.previous = frozen.previous.clone();
        ch
    }

    /// Expire a stale exchange, and — in reliable AMT mode — proactively
    /// nack sequence numbers still missing one RTO after the burst began,
    /// so the signer repairs loss without waiting out its own timer.
    /// Returns nack packets to transmit.
    pub fn poll(&mut self, now: Timestamp) -> Vec<Packet> {
        if let Some(ex) = &self.current {
            if now.since(ex.created_at) > self.exchange_ttl {
                self.current = None;
            }
        }
        if let Some(ex) = &self.previous {
            if now.since(ex.created_at) > self.exchange_ttl {
                self.previous = None;
            }
        }
        let rto = self.cfg.rto_micros;
        let missing: Vec<u32> = match &self.current {
            Some(ex)
                if matches!(ex.ack, AckState::Amt(_))
                    && ex.first_s2_at.is_some_and(|t| now.since(t) >= rto)
                    && now.since(ex.last_nack_at) >= rto
                    && ex.missing > 0 =>
            {
                ex.received.missing().collect()
            }
            _ => return Vec::new(),
        };
        // Allowlist: `missing` is only non-empty when the match above saw
        // `Some(ex)` with an AMT ack state, and nothing in between mutates
        // `self.current`.
        let ex = self.current.as_mut().expect("matched above");
        ex.last_nack_at = now;
        let AckState::Amt(amt) = &ex.ack else {
            unreachable!("matched above")
        };
        let items: Vec<_> = missing
            .iter()
            .map(|&seq| amt.disclose(seq as usize, false))
            .collect();
        vec![Packet {
            assoc_id: self.assoc_id,
            alg: self.cfg.algorithm,
            chain_index: ex.ack_key_index,
            body: Body::A2 {
                element: ex.ack_key,
                disclosure: A2Disclosure::Amt(items),
            },
        }]
    }

    /// Construct the verdict A2 for `seq` if the mode calls for one.
    ///
    /// Flat mode sends a single ack once the whole bundle has verified (or
    /// a nack at the first failure); AMT mode acknowledges every packet
    /// individually (selective acknowledgment).
    fn make_verdict(&mut self, in_current: bool, seq: u32, ok: bool) -> Option<Packet> {
        let ex = if in_current {
            self.current.as_mut()?
        } else {
            self.previous.as_mut()?
        };
        let (disclosure, key_index, key) = match &mut ex.ack {
            AckState::None => return None,
            AckState::Flat {
                pair: _,
                secrets,
                verdict_sent,
            } => {
                if ok {
                    if ex.missing > 0 {
                        return None;
                    }
                    *verdict_sent = true;
                } else if *verdict_sent {
                    return None;
                }
                let d = alpha_crypto::preack::disclose(secrets, ok);
                (
                    A2Disclosure::Flat {
                        ack: d.ack,
                        secret: d.secret,
                    },
                    ex.ack_key_index,
                    ex.ack_key,
                )
            }
            AckState::Amt(amt) => {
                let d = amt.disclose(seq as usize, ok);
                (A2Disclosure::Amt(vec![d]), ex.ack_key_index, ex.ack_key)
            }
        };
        Some(Packet {
            assoc_id: self.assoc_id,
            alg: self.cfg.algorithm,
            chain_index: key_index,
            body: Body::A2 {
                element: key,
                disclosure,
            },
        })
    }

    fn check_packet(&self, pkt: &Packet) -> Result<(), ProtocolError> {
        if pkt.assoc_id != self.assoc_id {
            return Err(ProtocolError::WrongAssociation);
        }
        if pkt.alg != self.cfg.algorithm {
            return Err(ProtocolError::WrongAlgorithm);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Association, Mode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The missing count moves only on a seq's first arrival, completion
    /// is reported once, and a superseded exchange keeps its own count.
    #[test]
    fn missing_count_moves_on_first_arrivals_only() {
        let cfg = Config::new(alpha_crypto::Algorithm::Sha1).with_chain_len(64);
        let mut rng = StdRng::seed_from_u64(1);
        let (mut alice, mut bob) = Association::pair(cfg, 1, &mut rng);
        let t = Timestamp::ZERO;
        let mut exchange = |alice: &mut Association, bob: &mut Association, n: u8| {
            let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i; 40]).collect();
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            let s1 = alice.sign_batch(&refs, Mode::Merkle, t).unwrap();
            let a1 = bob.handle(&s1, t, &mut rng).unwrap().packet().unwrap();
            alice.handle(&a1, t, &mut rng).unwrap().packets
        };
        let feed = |bob: &mut Association, s2: &Packet| {
            let r = bob.handle(s2, t, &mut StdRng::seed_from_u64(0)).unwrap();
            (r.deliveries.len(), r.bundle_complete)
        };
        let missing = |bob: &mut Association| {
            let v = bob.verifier();
            let count = |ex: &Option<BufferedExchange>| ex.as_ref().map(|ex| ex.missing);
            (count(&v.current), count(&v.previous))
        };

        let first = exchange(&mut alice, &mut bob, 4);
        assert_eq!(missing(&mut bob), (Some(4), None));
        assert_eq!(feed(&mut bob, &first[0]), (1, false));
        assert_eq!(feed(&mut bob, &first[0]), (0, false), "a duplicate");
        assert_eq!(missing(&mut bob), (Some(3), None));
        assert_eq!(feed(&mut bob, &first[1]), (1, false));
        assert_eq!(feed(&mut bob, &first[2]), (1, false));
        assert_eq!(missing(&mut bob), (Some(1), None));

        let second = exchange(&mut alice, &mut bob, 2);
        assert_eq!(missing(&mut bob), (Some(2), Some(1)));
        assert_eq!(feed(&mut bob, &second[0]), (1, false));
        assert_eq!(feed(&mut bob, &first[3]), (1, true), "late S2 completes");
        assert_eq!(feed(&mut bob, &first[3]), (0, false), "completion once");
        assert_eq!(missing(&mut bob), (Some(1), Some(0)));
        assert_eq!(feed(&mut bob, &second[1]), (1, true));
        assert_eq!(missing(&mut bob), (Some(0), Some(0)));
    }

    /// An S1 the verifier cannot answer, because its acknowledgment chain
    /// is spent, is refused before the peer's signature tracker moves:
    /// once the chain is replaced, the very same S1 is accepted.
    #[test]
    fn s1_on_an_exhausted_ack_chain_changes_nothing() {
        use alpha_crypto::chain::ChainKind;
        let alg = alpha_crypto::Algorithm::Sha1;
        let cfg = Config::new(alg).with_chain_len(64);
        let mut rng = StdRng::seed_from_u64(2);
        let (mut alice, mut bob) = Association::pair(cfg, 1, &mut rng);
        let mut spent = HashChain::generate(alg, ChainKind::RoleBoundAck, 4, &mut rng);
        while spent.disclose_pair().is_ok() {}
        bob.verifier().install_chain(spent);
        assert_eq!(bob.remaining_exchanges(), 0);

        let t = Timestamp::ZERO;
        let s1 = alice.sign(b"no ack left", t).unwrap();
        let before = bob.verifier().peer_sig.last();
        let refused = bob.handle(&s1, t, &mut rng);
        assert!(matches!(refused, Err(ProtocolError::ChainExhausted)));
        assert_eq!(bob.verifier().peer_sig.last(), before, "tracker unmoved");
        assert!(bob.verifier().current.is_none(), "nothing buffered");

        let fresh = HashChain::generate(alg, ChainKind::RoleBoundAck, 64, &mut rng);
        bob.verifier().install_chain(fresh);
        let a1 = bob.handle(&s1, t, &mut rng).unwrap().packet();
        assert!(a1.is_some(), "the same S1 is answered once a chain is back");
    }
}
