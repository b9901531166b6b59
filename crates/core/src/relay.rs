//! The on-path relay: per-packet verification, early dropping, and signed
//! data extraction.
//!
//! A relay holds, per association it has learned (footnote 1 of the paper:
//! forwarding nodes in a WMN/WSN/MANET, or middleboxes like firewalls):
//!
//! - chain verifiers for both hosts' signature and acknowledgment chains
//!   (anchors observed in the handshake),
//! - the buffered pre-signature of the outstanding exchange per direction
//!   (a handful of hashes — the `n·h` relay column of Table 2), and
//! - the buffered pre-(n)ack commitments (Table 3) so it can verify
//!   verdicts, which signalling protocols on relays need (§3.2.2).
//!
//! [`AssociationRelay::observe_view`] is the relay's one judgment of one
//! association's packet: a forwarding decision plus what it extracted.
//! [`Relay`] keeps one [`AssociationRelay`] per association id and
//! dispatches on the packet's id ([`Relay::observe`] is an adapter for
//! owned packets); the engine, whose relay flows are keyed by address
//! pair and id already, holds one [`AssociationRelay`] per flow. The S2
//! and A2 checks are the receiver's and the sender's own
//! ([`crate::exchange`]); the relay adds its search over both directions
//! and its policy. Forged S2s, replayed chain elements, and unsolicited
//! traffic (S2 with no matching buffered pre-signature — i.e. data the
//! receiver never agreed to with an A1) are dropped, which is ALPHA's
//! flooding mitigation (§3.5). Packets of unknown associations are
//! forwarded or dropped by [`RelayConfig::forward_unknown`] — forwarding
//! supports the paper's incremental-deployment story.

use std::collections::hash_map::{Entry, HashMap};

use alpha_crypto::chain::{ChainError, ChainVerifier, Role};
use alpha_crypto::preack::AckDisclosure;
use alpha_crypto::{Algorithm, Digest};
use alpha_wire::{
    A2DisclosureView, AckCommit, Body, BodyView, HandshakeRole, Packet, PacketView,
    PreSignatureView,
};

use crate::batch::{self, S2BatchItem, S2Check, RUN};
use crate::exchange::{self, chain_step, Announced, Commit, Disclosure, Presig};
use crate::limiter::S1Limiter;
use crate::{Config, MacScheme, Timestamp};

/// Relay policy knobs. What a relay checks with — the MAC construction
/// and the chain skip bound — is the deployment's protocol [`Config`],
/// the hosts' own ([`AssociationRelay::new`]), so a relay cannot judge
/// with a scheme the hosts do not sign with.
#[derive(Debug, Clone, Copy)]
pub struct RelayConfig {
    /// Forward packets of associations this relay has not learned
    /// (incremental deployment) instead of dropping them.
    pub forward_unknown: bool,
    /// Maximum S1 bytes per association per second (the S1-flood limiter
    /// of §3.5). `None` disables rate limiting.
    pub s1_bytes_per_sec: Option<u64>,
}

impl Default for RelayConfig {
    fn default() -> RelayConfig {
        RelayConfig {
            forward_unknown: true,
            s1_bytes_per_sec: Some(64 * 1024),
        }
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Chain element failed authentication (forged / replayed / wrong role).
    BadChainElement,
    /// Message failed MAC or Merkle verification against the buffered
    /// pre-signature.
    BadMac,
    /// S2 for an exchange the relay never saw announced (unsolicited data).
    Unsolicited,
    /// Verdict failed verification against the buffered commitment.
    BadVerdict,
    /// S1 rate limit exceeded (flood defence).
    RateLimited,
    /// Packet for an unknown association while `forward_unknown` is off.
    UnknownAssociation,
    /// Body malformed with respect to protocol rules (e.g. zero leaves).
    Malformed,
}

/// Forwarding decision for one observed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayDecision {
    /// Pass the packet on.
    Forward,
    /// Drop it.
    Drop(DropReason),
}

/// Information a relay extracted from verified traffic — the "secure
/// extraction of signed data by forwarding nodes" the paper builds
/// middlebox signalling on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayEvent {
    /// A new association was learned from a handshake.
    AssociationLearned(u64),
    /// A payload verified end-to-end passed through this relay.
    VerifiedPayload {
        /// Association it belongs to.
        assoc_id: u64,
        /// Direction: true = initiator→responder chain, false = reverse.
        forward_direction: bool,
        /// Message index within its bundle.
        seq: u32,
        /// The verified bytes.
        payload: Vec<u8>,
    },
    /// A delivery verdict passed through and verified.
    VerifiedVerdict {
        /// Association it belongs to.
        assoc_id: u64,
        /// Message index (0 for flat verdicts covering a bundle).
        seq: u32,
        /// true = ack, false = nack.
        ack: bool,
    },
}

/// What [`Relay::observe_view`] extracted from one packet. Unlike
/// [`RelayEvent`], this carries no payload bytes — the caller already
/// holds the S2 view's payload slice, so the zero-copy path never clones
/// it into an event.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RelayViewOutcome {
    /// A new association was learned from a handshake.
    pub learned: Option<u64>,
    /// An S2 payload verified end-to-end: `(forward_direction, seq)`.
    pub verified_s2: Option<(bool, u32)>,
    /// Verified delivery verdicts as `(seq, ack)` pairs.
    pub verdicts: Vec<(u32, bool)>,
}

/// One direction of one association, as seen from the relay.
struct DirectionState {
    sig: ChainVerifier,
    ack: ChainVerifier,
    /// The acknowledgment tracker the receiver's last renewal replaced.
    /// A receiver answers an S1 from whichever chain it held when the S1
    /// arrived (as [`crate::SignerChannel`] keeps its peer's replaced
    /// tracker), so the exchange in flight across a renewal is still
    /// answered from the old chain. Retired by the first A1 announced
    /// on the new one.
    ack_prev: Option<ChainVerifier>,
    /// Outstanding exchange announced by the last S1 in this direction.
    exchange: Option<RelayExchange>,
    /// The superseded exchange, kept so reordered trailing S2s still
    /// verify (a new S1 can overtake them on multi-hop paths).
    prev_exchange: Option<RelayExchange>,
}

impl DirectionState {
    /// A direction tracking the sender's signature chain and the
    /// receiver's acknowledgment chain from their `(anchor, index)`, with
    /// nothing buffered yet.
    fn new(alg: Algorithm, sig: (Digest, u64), ack: (Digest, u64)) -> Self {
        use alpha_crypto::chain::ChainKind::{RoleBoundAck, RoleBoundSignature};
        let track = |kind, (anchor, index)| ChainVerifier::new(alg, kind, anchor, index);
        DirectionState {
            sig: track(RoleBoundSignature, sig),
            ack: track(RoleBoundAck, ack),
            ack_prev: None,
            exchange: None,
            prev_exchange: None,
        }
    }

    /// Authenticate an element of the receiver's acknowledgment chain
    /// ([`chain_step`]): on the current anchor, else on the one a renewal
    /// replaced. Each tracker only moves when it accepts.
    fn ack_step(&mut self, index: u64, element: &Digest, role: Role) -> Result<bool, ChainError> {
        match chain_step(&mut self.ack, index, element, role) {
            Ok(repeat) => {
                if !repeat && role == Role::Announce {
                    self.ack_prev = None;
                }
                Ok(repeat)
            }
            Err(e) => match &mut self.ack_prev {
                Some(prev) => chain_step(prev, index, element, role).map_err(|_| e),
                None => Err(e),
            },
        }
    }

    /// Bytes buffered in this direction for digests of length `h`.
    fn stored_bytes(&self, h: usize) -> usize {
        let chains = self.sig.stored_bytes()
            + self.ack.stored_bytes()
            + self
                .ack_prev
                .as_ref()
                .map_or(0, ChainVerifier::stored_bytes);
        let ex = self.exchange.as_ref().map_or(0, |ex| {
            ex.s1.presig.stored_bytes(h) + ex.commit.as_ref().map_or(0, Commit::stored_bytes)
        });
        chains + ex
    }
}

struct RelayExchange {
    s1: Announced,
    commit: Option<Commit>,
}

struct RelayAssociation {
    alg: Algorithm,
    /// Initiator → responder direction (initiator's signature chain,
    /// responder's acknowledgment chain).
    fwd: DirectionState,
    /// Responder → initiator direction.
    rev: DirectionState,
    limiter: S1Limiter,
    /// Signalled payload-rate caps (§1: receiver-controlled, relay-
    /// enforced). `data_cap_fwd` limits verified S2 payload bytes flowing
    /// in the fwd direction, installed by a RateLimit signal from the
    /// reverse direction's host.
    data_cap_fwd: Option<S1Limiter>,
    data_cap_rev: Option<S1Limiter>,
    /// Pending handshake init, until the reply arrives.
    pending_init: Option<(Digest, u64, Digest, u64)>,
    /// The init anchors this association was learned from, kept so a
    /// retransmitted HS1 (the initiator resending because the reply was
    /// slow) is recognized and cannot knock a learned association back
    /// into the handshake-incomplete state.
    learned_init: Option<(Digest, u64, Digest, u64)>,
}

/// What a relay keeps of one association, and its judgment of that
/// association's packets. A [`Relay`] holds one per association id it
/// has seen a handshake for; a caller that has already sorted traffic by
/// association (the engine keys a relay flow by address pair and id)
/// holds one directly, so no packet hashes its association id twice.
pub struct AssociationRelay {
    cfg: RelayConfig,
    /// The deployment's MAC construction ([`Config::mac_scheme`]).
    mac_scheme: MacScheme,
    assoc_id: u64,
    /// `None` until an HS1 is seen, and again once a verified Close
    /// released the state: the association is then unknown, exactly as
    /// one never seen.
    state: Option<RelayAssociation>,
}

impl AssociationRelay {
    /// Relay state for association `assoc_id`, with nothing learned,
    /// judging with `protocol`'s MAC construction and chain skip bound:
    /// those of the hosts it serves.
    #[must_use]
    pub fn new(cfg: RelayConfig, protocol: &Config, assoc_id: u64) -> AssociationRelay {
        AssociationRelay {
            cfg,
            mac_scheme: protocol.mac_scheme,
            assoc_id,
            state: None,
        }
    }

    /// Whether the association is tracked: an HS1 was seen and no Close
    /// has released it since.
    #[must_use]
    pub fn is_tracked(&self) -> bool {
        self.state.is_some()
    }

    /// Bytes of protocol state buffered for the association — the relay
    /// columns of Tables 2 and 3.
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        self.state.as_ref().map_or(0, |a| {
            let h = a.alg.digest_len();
            a.fwd.stored_bytes(h) + a.rev.stored_bytes(h)
        })
    }

    /// Observe one borrowed packet view of this association in transit:
    /// the relay's one judgment. `wire_len` is the encoded length of the
    /// packet (the slice it was parsed from) and is what the S1 flood
    /// limiter charges. The outcome carries no payload bytes; a caller
    /// that extracts verified payloads copies the view's own payload
    /// slice exactly once. An S2 is judged as a run of one
    /// ([`AssociationRelay::observe_s2_run`]).
    pub fn observe_view(
        &mut self,
        view: &PacketView<'_>,
        wire_len: usize,
        now: Timestamp,
    ) -> (RelayDecision, RelayViewOutcome) {
        debug_assert_eq!(view.assoc_id, self.assoc_id, "a packet of this association");
        if let Some(item) = S2BatchItem::from_view(view) {
            let mut verdict = (
                RelayDecision::Drop(DropReason::Malformed),
                RelayViewOutcome::default(),
            );
            self.s2_run(std::slice::from_ref(&item), now, &mut |v| verdict = v);
            return verdict;
        }
        match &view.body {
            BodyView::Handshake(h) => {
                // Handshakes are rare (one pair per association): going
                // through the owned body here is off the hot path.
                let hs = h.to_handshake();
                let (decision, learned) = self.observe_handshake(view.alg, &hs);
                (
                    decision,
                    RelayViewOutcome {
                        learned,
                        ..RelayViewOutcome::default()
                    },
                )
            }
            _ => self.observe_view_data(view, wire_len, now),
        }
    }

    /// Observe a run of S2 packets of this association in one call,
    /// handing each packet's decision to `sink` in input order. The
    /// decisions are exactly what a packet-by-packet
    /// [`AssociationRelay::observe_view`] sequence would have produced:
    /// the run is verified chunk by chunk ([`crate::batch`]), chain
    /// acceptance and structural checks still run strictly in order,
    /// only the independent MAC / Merkle digests are batched, and a
    /// payload that could carry a relay-visible control message (signal
    /// or chain renewal) is a chunk of its own so its state changes order
    /// correctly with its neighbours. Nothing is allocated.
    pub fn observe_s2_run(
        &mut self,
        items: &[S2BatchItem<'_>],
        now: Timestamp,
        sink: &mut dyn FnMut((RelayDecision, RelayViewOutcome)),
    ) {
        for chunk in batch::chunks(items) {
            self.s2_run(chunk, now, sink);
        }
    }

    fn observe_handshake(
        &mut self,
        alg: Algorithm,
        hs: &alpha_wire::Handshake,
    ) -> (RelayDecision, Option<u64>) {
        // Relays learn anchors by watching the handshake (§3.4). The relay
        // cannot judge handshake authenticity (that is the endpoints' PK
        // check); it only records anchors.
        let s1_rate = self.cfg.s1_bytes_per_sec;
        match hs.role {
            HandshakeRole::Init => {
                let init = (
                    hs.sig_anchor,
                    hs.sig_anchor_index,
                    hs.ack_anchor,
                    hs.ack_anchor_index,
                );
                let a = self
                    .state
                    .get_or_insert_with(|| RelayAssociation::placeholder(alg, s1_rate));
                // A retransmitted HS1 (reply still in flight when the
                // initiator's timer fired) carries the anchors already
                // learned: forward it untouched. Re-arming `pending_init`
                // here would flip a learned association back to
                // handshake-incomplete and silently unverify everything
                // that follows. Different anchors are a genuine new
                // handshake and restart learning as before.
                if a.learned_init != Some(init) {
                    a.pending_init = Some(init);
                }
                (RelayDecision::Forward, None)
            }
            HandshakeRole::Reply => {
                let Some(a) = self.state.as_mut() else {
                    return (RelayDecision::Forward, None);
                };
                let Some((isig, isig_i, iack, iack_i)) = a.pending_init.take() else {
                    return (RelayDecision::Forward, None);
                };
                let dir = |sig, ack| DirectionState::new(alg, sig, ack);
                a.alg = alg;
                a.fwd = dir((isig, isig_i), (hs.ack_anchor, hs.ack_anchor_index));
                a.rev = dir((hs.sig_anchor, hs.sig_anchor_index), (iack, iack_i));
                a.learned_init = Some((isig, isig_i, iack, iack_i));
                (RelayDecision::Forward, Some(self.assoc_id))
            }
        }
    }

    /// Common preamble for data packets: handshake completeness and
    /// algorithm agreement. `Err` carries the decision to return
    /// directly.
    fn data_assoc(&mut self, alg: Algorithm) -> Result<&mut RelayAssociation, RelayDecision> {
        let unknown = if self.cfg.forward_unknown {
            RelayDecision::Forward
        } else {
            RelayDecision::Drop(DropReason::UnknownAssociation)
        };
        let Some(a) = self.state.as_mut() else {
            return Err(unknown);
        };
        if a.pending_init.is_some() {
            // Handshake incomplete: chains unknown; treat as unknown assoc.
            return Err(unknown);
        }
        if alg != a.alg {
            return Err(RelayDecision::Drop(DropReason::Malformed));
        }
        Ok(a)
    }

    fn observe_view_data(
        &mut self,
        view: &PacketView<'_>,
        wire_len: usize,
        now: Timestamp,
    ) -> (RelayDecision, RelayViewOutcome) {
        let none = RelayViewOutcome::default();
        let a = match self.data_assoc(view.alg) {
            Ok(a) => a,
            Err(decision) => return (decision, none),
        };
        match &view.body {
            BodyView::S1 { element, presig } => {
                let decision = s1_parts(a, view.chain_index, element, wire_len, now, presig);
                (decision, none)
            }
            BodyView::A1 { element, commit } => {
                (a1_parts(a, view.chain_index, element, commit), none)
            }
            BodyView::A2 {
                element,
                disclosure,
            } => match a2_parts(a, view.chain_index, element, disclosure) {
                Err(reason) => (RelayDecision::Drop(reason), none),
                Ok(verdicts) => (
                    RelayDecision::Forward,
                    RelayViewOutcome {
                        verdicts,
                        ..RelayViewOutcome::default()
                    },
                ),
            },
            // Allowlist: `observe_view` dispatches S2s and handshakes
            // before reaching here, so no network input can hit this arm.
            BodyView::S2 { .. } | BodyView::Handshake(_) => unreachable!("handled by observe_view"),
        }
    }

    /// One chunk ([`batch::chunks`]; a lone S2 is a chunk of one):
    /// prepare every packet in order, compute the pending digests in
    /// one batched sweep, then finish in order, handing each packet's
    /// decision to `sink`.
    fn s2_run(
        &mut self,
        run: &[S2BatchItem<'_>],
        now: Timestamp,
        sink: &mut dyn FnMut((RelayDecision, RelayViewOutcome)),
    ) {
        let n = run.len();
        // Phase 1: sequential prepare; `Err` holds packets decided
        // without crypto.
        let mut prepared = [Err(RelayDecision::Forward); RUN];
        for (slot, item) in prepared.iter_mut().zip(run) {
            *slot = self
                .data_assoc(item.alg)
                .and_then(|a| s2_prepare(a, item).map_err(RelayDecision::Drop));
        }
        // Phase 2: batched crypto. Every checked packet carries the
        // association's algorithm (`data_assoc` enforced it); with no
        // association every packet was decided in phase 1 and the
        // fallback algorithm hashes nothing.
        let alg = self.state.as_ref().map_or(Algorithm::Sha1, |a| a.alg);
        let check = |k: usize| prepared[k].ok().map(|(_, check)| check);
        let mut passed = [false; RUN];
        batch::run_checks(alg, self.mac_scheme, run, check, &mut passed[..n]);
        // Phase 3: sequential finish, in input order.
        for (k, item) in run.iter().enumerate() {
            let none = RelayViewOutcome::default;
            let verdict = match prepared[k] {
                Err(decision) => (decision, none()),
                Ok(_) if !passed[k] => (RelayDecision::Drop(DropReason::BadMac), none()),
                Ok((is_fwd, _)) => {
                    // Allowlist: phase 1 found the association, and only
                    // a Close signal releases it — a control payload, so
                    // always the last (only) packet of its chunk.
                    let a = self.state.as_mut().expect("present in phase 1");
                    match s2_finish(a, is_fwd, item.payload, now) {
                        Err(reason) => (RelayDecision::Drop(reason), none()),
                        Ok(close) => {
                            if close {
                                self.state = None;
                            }
                            let outcome = RelayViewOutcome {
                                verified_s2: Some((is_fwd, item.seq)),
                                ..none()
                            };
                            (RelayDecision::Forward, outcome)
                        }
                    }
                }
            };
            sink(verdict);
        }
    }
}

/// A forwarding node that authenticates ALPHA traffic in transit: one
/// [`AssociationRelay`] per association it tracks, found by the
/// packet's association id.
pub struct Relay {
    cfg: RelayConfig,
    /// The deployment it judges for: [`Config::new`]'s defaults.
    protocol: Config,
    assocs: HashMap<u64, AssociationRelay>,
}

impl Relay {
    /// An empty relay with the given policy, serving a deployment on
    /// [`Config::new`]'s defaults (HMAC, a skip bound of 128). A
    /// deployment on other settings judges through
    /// [`AssociationRelay::new`] with its own [`Config`], as the engine
    /// does.
    #[must_use]
    pub fn new(cfg: RelayConfig) -> Relay {
        Relay {
            cfg,
            protocol: Config::new(Algorithm::Sha1),
            assocs: HashMap::new(),
        }
    }

    /// Number of associations currently tracked.
    #[must_use]
    pub fn association_count(&self) -> usize {
        self.assocs.len()
    }

    /// Bytes of protocol state buffered for `assoc_id` — the relay columns
    /// of Tables 2 and 3.
    #[must_use]
    pub fn buffered_bytes(&self, assoc_id: u64) -> usize {
        self.assocs
            .get(&assoc_id)
            .map_or(0, AssociationRelay::buffered_bytes)
    }

    /// Pre-register an association (static bootstrapping, §3.4: base
    /// stations provide pair-wise anchors before deployment).
    pub fn adopt(
        &mut self,
        assoc_id: u64,
        alg: Algorithm,
        init_sig: (Digest, u64),
        init_ack: (Digest, u64),
        resp_sig: (Digest, u64),
        resp_ack: (Digest, u64),
    ) {
        let dir = |sig, ack| DirectionState::new(alg, sig, ack);
        let state = RelayAssociation {
            alg,
            fwd: dir(init_sig, resp_ack),
            rev: dir(resp_sig, init_ack),
            limiter: S1Limiter::new(self.cfg.s1_bytes_per_sec),
            data_cap_fwd: None,
            data_cap_rev: None,
            pending_init: None,
            learned_init: Some((init_sig.0, init_sig.1, init_ack.0, init_ack.1)),
        };
        let mut relay = AssociationRelay::new(self.cfg, &self.protocol, assoc_id);
        relay.state = Some(state);
        self.assocs.insert(assoc_id, relay);
    }

    /// Observe one owned packet in transit. Returns the forwarding
    /// decision and any extraction events. This is an adapter for callers
    /// that hold a [`Packet`] (tests, examples, the table bins): it
    /// encodes the packet, decodes the bytes as a relay receives them and
    /// lets [`Relay::observe_view`] judge, so there is one judgment and
    /// the engine runs it. An owned packet whose encoding the decoder
    /// rejects (zero MACs, a zero-leaf root) is dropped as malformed.
    pub fn observe(&mut self, pkt: &Packet, now: Timestamp) -> (RelayDecision, Vec<RelayEvent>) {
        let bytes = pkt.emit();
        let Ok(view) = PacketView::parse(&bytes) else {
            return (RelayDecision::Drop(DropReason::Malformed), Vec::new());
        };
        let (decision, outcome) = self.observe_view(&view, bytes.len(), now);
        let assoc_id = pkt.assoc_id;
        let mut events = Vec::new();
        if let Some(id) = outcome.learned {
            events.push(RelayEvent::AssociationLearned(id));
        }
        if let (Some((forward_direction, seq)), Body::S2 { payload, .. }) =
            (outcome.verified_s2, &pkt.body)
        {
            events.push(RelayEvent::VerifiedPayload {
                assoc_id,
                forward_direction,
                seq,
                payload: payload.clone(),
            });
        }
        events.extend(
            outcome
                .verdicts
                .into_iter()
                .map(|(seq, ack)| RelayEvent::VerifiedVerdict { assoc_id, seq, ack }),
        );
        (decision, events)
    }

    /// Observe one borrowed packet view in transit:
    /// [`AssociationRelay::observe_view`] on the packet's association.
    pub fn observe_view(
        &mut self,
        view: &PacketView<'_>,
        wire_len: usize,
        now: Timestamp,
    ) -> (RelayDecision, RelayViewOutcome) {
        let learns = matches!(&view.body, BodyView::Handshake(h) if h.role == HandshakeRole::Init);
        self.judge(view.assoc_id, learns, |a| {
            a.observe_view(view, wire_len, now)
        })
    }

    /// Observe a run of S2 packets of one association in one call
    /// ([`AssociationRelay::observe_s2_run`]); decisions come back in
    /// input order.
    pub fn observe_s2_batch(
        &mut self,
        assoc_id: u64,
        items: &[S2BatchItem<'_>],
        now: Timestamp,
    ) -> Vec<(RelayDecision, RelayViewOutcome)> {
        let mut out = Vec::with_capacity(items.len());
        self.judge(assoc_id, false, |a| {
            a.observe_s2_run(items, now, &mut |v| out.push(v));
        });
        out
    }

    /// Let `assoc_id`'s relay state judge — stood up first when the
    /// packet `learns` it (an HS1); an association with none judges as a
    /// fresh one does — and release the state if the judgment left
    /// nothing tracked (a verified Close).
    fn judge<R>(
        &mut self,
        assoc_id: u64,
        learns: bool,
        judge: impl FnOnce(&mut AssociationRelay) -> R,
    ) -> R {
        let fresh = || AssociationRelay::new(self.cfg, &self.protocol, assoc_id);
        let mut slot = match self.assocs.entry(assoc_id) {
            Entry::Occupied(slot) => slot,
            Entry::Vacant(vacant) if learns => vacant.insert_entry(fresh()),
            Entry::Vacant(_) => return judge(&mut fresh()),
        };
        let verdict = judge(slot.get_mut());
        if !slot.get().is_tracked() {
            slot.remove();
        }
        verdict
    }
}

/// The relay's search over both directions (`fwd`, `rev`): the first
/// whose chain takes the element (`step` authenticates it on the `sig`
/// or `ack` chain), and whether the element was a repeat. A direction
/// that refuses it is left unchanged, so a failed first attempt costs
/// one wasted check and nothing else.
fn find_direction(
    dirs: [&mut DirectionState; 2],
    step: impl Fn(&mut DirectionState) -> Result<bool, ChainError>,
) -> Option<(&mut DirectionState, bool)> {
    dirs.into_iter().find_map(|d| {
        let repeat = step(d).ok()?;
        Some((d, repeat))
    })
}

/// The S1 judgment.
fn s1_parts(
    a: &mut RelayAssociation,
    chain_index: u64,
    element: &Digest,
    wire_len: usize,
    now: Timestamp,
    presig: &PreSignatureView<'_>,
) -> RelayDecision {
    // Authenticate the chain element *before* charging the rate
    // limiter: forged S1 floods die at the (cheap, skip-bounded)
    // chain check without consuming the association's S1 budget,
    // so they cannot starve the legitimate sender. The limiter
    // then bounds floods of *authentic* S1s (§3.5).
    // Whichever signature chain the element authenticates against is
    // the sender. A retransmitted S1 (lost A1 — the paper stresses
    // that S1 and A1 need robust retransmission) carries the already
    // accepted element: recognize and forward it.
    let Some((dir, duplicate)) = find_direction([&mut a.fwd, &mut a.rev], |d| {
        chain_step(&mut d.sig, chain_index, element, Role::Announce)
    }) else {
        return RelayDecision::Drop(DropReason::BadChainElement);
    };
    // Duplicates also pay (an attacker replaying a captured S1
    // must not bypass the flood budget), but a fresh element
    // was already accepted above, so a rate-limited fresh S1's
    // retransmission comes back as a duplicate and passes once
    // the bucket refills.
    if !a.limiter.allow(wire_len as u64, now) {
        return RelayDecision::Drop(DropReason::RateLimited);
    }
    if !Presig::admits(presig) {
        return RelayDecision::Drop(DropReason::Malformed);
    }
    // First-seen pre-signature wins for a given chain element;
    // the S1's content only becomes checkable at S2 time, so a
    // duplicate is never allowed to overwrite buffered state.
    let keep = duplicate
        && dir
            .exchange
            .as_ref()
            .is_some_and(|ex| ex.s1.index == chain_index);
    if !keep {
        // The buffered state must outlive the datagram: the relay's one
        // deliberate S1 copy, into the buffer of the exchange it retires.
        let spare = dir.prev_exchange.take().map(|ex| ex.s1.presig);
        dir.prev_exchange = dir.exchange.take();
        dir.exchange = Some(RelayExchange {
            s1: Announced {
                index: chain_index,
                announce: *element,
                presig: Presig::copy_of(presig, spare),
            },
            commit: None,
        });
    }
    RelayDecision::Forward
}

/// The A1 judgment.
fn a1_parts(
    a: &mut RelayAssociation,
    chain_index: u64,
    element: &Digest,
    commit: &AckCommit,
) -> RelayDecision {
    // The A1 flows against the data direction: its ack chain
    // belongs to the direction whose exchange it answers. A1
    // replays (answering a retransmitted S1) carry the already
    // accepted element and are forwarded as-is.
    match find_direction([&mut a.fwd, &mut a.rev], |d| {
        d.ack_step(chain_index, element, Role::Announce)
    }) {
        None => RelayDecision::Drop(DropReason::BadChainElement),
        Some((dir, false)) => {
            if let Some(ex) = dir.exchange.as_mut() {
                ex.commit = Commit::new(commit);
            }
            RelayDecision::Forward
        }
        Some((_, true)) => RelayDecision::Forward,
    }
}

/// Phase 1 of S2 processing: the direction and exchange the S2 claims,
/// then the receiver's own key and shape check
/// ([`Announced::s2_check`]). `Ok` carries the direction (true =
/// initiator→responder) of a chain-accepted, structurally valid S2 and
/// its deferred MAC / Merkle comparison. An S2 no buffered exchange
/// claims is unsolicited data, which a relay drops (§3.5). Both directions can hold an exchange at
/// the same chain index (two ends signing at once, their chains in
/// step), so the S2 belongs to the one whose signature chain takes its
/// key; a direction that refuses it is left unchanged. The chain
/// verifier advances *before* the MAC/Merkle check runs, as one packet
/// at a time would, so deferring the crypto to a batch changes nothing
/// observable.
fn s2_prepare(
    a: &mut RelayAssociation,
    item: &S2BatchItem<'_>,
) -> Result<(bool, S2Check), DropReason> {
    let alg = a.alg;
    let mut claimed = false;
    for (d, is_fwd) in [(&mut a.fwd, true), (&mut a.rev, false)] {
        let Some((current, ex)) = exchange::claimed(
            d.exchange.as_ref(),
            d.prev_exchange.as_ref(),
            |ex| &ex.s1,
            item.chain_index,
        ) else {
            continue;
        };
        claimed = true;
        match ex.s1.s2_check(alg, &mut d.sig, current, item) {
            Err(_) => continue,
            Ok(None) => return Err(DropReason::BadMac),
            Ok(Some(check)) => return Ok((is_fwd, check)),
        }
    }
    match claimed {
        true => Err(DropReason::BadChainElement),
        false => Err(DropReason::Unsolicited),
    }
}

/// Phase 3 of S2 processing: rate caps, control signals, and chain
/// renewal for a packet whose crypto check passed. `Ok(true)`: a
/// verified Close signal, the association's state is to be released
/// once this packet is forwarded.
fn s2_finish(
    a: &mut RelayAssociation,
    is_fwd: bool,
    payload: &[u8],
    now: Timestamp,
) -> Result<bool, DropReason> {
    let alg = a.alg;
    // Enforce a signalled payload-rate cap on this direction.
    let cap = if is_fwd {
        &mut a.data_cap_fwd
    } else {
        &mut a.data_cap_rev
    };
    if let Some(bucket) = cap {
        if !bucket.allow(payload.len() as u64, now) {
            return Err(DropReason::RateLimited);
        }
    }
    // Control signals: a verified RateLimit from host X caps
    // the traffic flowing *toward* X (the opposite direction);
    // a verified Close releases this association's state after
    // this packet is forwarded.
    if let Some(sig) = crate::signal::Signal::parse(payload) {
        match sig {
            crate::signal::Signal::RateLimit { bytes_per_sec } => {
                let toward_sender = if is_fwd {
                    &mut a.data_cap_rev
                } else {
                    &mut a.data_cap_fwd
                };
                *toward_sender = Some(S1Limiter::new(Some(bytes_per_sec)));
            }
            crate::signal::Signal::Close => return Ok(true),
            crate::signal::Signal::LocatorUpdate { .. } => {}
        }
    }
    // Chain renewals ride inside verified payloads; the relay
    // re-anchors the sender's chains (its signature chain in
    // this direction, its acknowledgment chain in the other). The
    // replaced acknowledgment tracker stays: the other direction's
    // exchange in flight is answered from the old chain.
    if let Some(anchors) = crate::renewal::parse(alg, payload) {
        use alpha_crypto::chain::ChainKind::{RoleBoundAck, RoleBoundSignature};
        let (sig_dir, ack_dir) = if is_fwd {
            (&mut a.fwd, &mut a.rev)
        } else {
            (&mut a.rev, &mut a.fwd)
        };
        sig_dir.sig = ChainVerifier::new(alg, RoleBoundSignature, anchors.sig.0, anchors.sig.1);
        sig_dir.exchange = None;
        let renewed = ChainVerifier::new(alg, RoleBoundAck, anchors.ack.0, anchors.ack.1);
        ack_dir.ack_prev = Some(std::mem::replace(&mut ack_dir.ack, renewed));
    }
    Ok(false)
}

/// The A2 judgment. Returns the verified `(seq, ack)` verdicts. AMT
/// items are read in place from the datagram, and only once the chain
/// element is accepted and a commitment is buffered: a forged A2 costs
/// its chain check, whatever it claims to disclose.
fn a2_parts(
    a: &mut RelayAssociation,
    chain_index: u64,
    element: &Digest,
    disclosure: &A2DisclosureView<'_>,
) -> Result<Vec<(u32, bool)>, DropReason> {
    let alg = a.alg;
    let Some((dir, _)) = find_direction([&mut a.fwd, &mut a.rev], |d| {
        d.ack_step(chain_index, element, Role::Disclose)
    }) else {
        return Err(DropReason::BadChainElement);
    };
    // No buffered commitment: cannot verify, forward as-is.
    let Some(commit) = dir.exchange.as_ref().and_then(|ex| ex.commit) else {
        return Ok(Vec::new());
    };
    let disclosure = match disclosure {
        A2DisclosureView::Flat { ack, secret } => Disclosure::Flat(AckDisclosure {
            ack: *ack,
            secret: *secret,
        }),
        A2DisclosureView::Amt(items) => Disclosure::Amt(items.items()),
    };
    commit
        .verdicts(alg, element, disclosure)
        .map_err(|_| DropReason::BadVerdict)
}

impl RelayAssociation {
    /// State for an association whose handshake is still in flight.
    fn placeholder(alg: Algorithm, s1_rate: Option<u64>) -> RelayAssociation {
        let blank = (Digest::zero(alg), 0);
        RelayAssociation {
            alg,
            fwd: DirectionState::new(alg, blank, blank),
            rev: DirectionState::new(alg, blank, blank),
            limiter: S1Limiter::new(s1_rate),
            data_cap_fwd: None,
            data_cap_rev: None,
            pending_init: None,
            learned_init: None,
        }
    }
}
