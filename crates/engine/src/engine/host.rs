//! Host-role flows: [`HostFlow`], the three steps every host path is
//! built from — install-and-arm, [`ingest`], settle — and flow creation
//! (add / connect / accept / complete) and signing on top of them.

use super::*;

/// Per-flow chain-renewal pacing state (lives inside [`HostFlow`]).
pub(super) enum RenewalSlot {
    /// No renewal scheduled or in flight.
    Idle,
    /// A jittered renewal deadline is armed on the timer wheel.
    Scheduled(Timestamp),
    /// The renewal S1 is in flight; commit on `ExchangeComplete`.
    Offered(Box<RenewalOffer>),
}

/// An established end-host association and the engine state around it.
pub(super) struct HostFlow {
    pub(super) assoc: Box<Association>,
    /// When the current outbound exchange started (RTT metric).
    pub(super) inflight_since: Option<Timestamp>,
    /// Channel estimator + mode controller, present when
    /// [`EngineConfig::adapt`](super::EngineConfig::adapt) is set.
    pub(super) adapt: Option<Box<FlowAdapt>>,
    /// Last datagram or local sign on this flow — the hibernation
    /// idle clock.
    pub(super) last_seen: Timestamp,
    /// Deadline of the armed idle-check wheel entry
    /// ([`Timestamp::ZERO`] when hibernation is off). Datagrams
    /// only refresh `last_seen`; the idle check re-arms itself
    /// lazily when it fires, so each flow keeps at most one idle
    /// entry on the wheel regardless of traffic.
    pub(super) idle_deadline: Timestamp,
    /// Paced chain-renewal state.
    pub(super) renewal: RenewalSlot,
    /// Deadline of the flow's one armed protocol-poll wheel entry, if
    /// any. A new `poll_at` is scheduled only when it is earlier: a
    /// later one is picked up when the armed entry fires and
    /// [`EngineCore::poll_host`] re-arms whatever is still due. So an
    /// engine that is never polled keeps one poll entry per flow, not
    /// one per exchange.
    pub(super) poll_armed: Option<Timestamp>,
    /// The flow's S1 / HS1 bucket, charged on arrival.
    pub(super) limiter: S1Limiter,
}

impl HostFlow {
    /// Arm the association's next protocol poll unless an entry at or
    /// before it is already on the wheel. Returns whether the wheel
    /// changed.
    pub(super) fn arm_poll(&mut self, wheel: &mut TimerWheel<FlowKey>, key: FlowKey) -> bool {
        match self.assoc.poll_at() {
            Some(t) if self.poll_armed.is_none_or(|armed| t < armed) => {
                wheel.schedule(t, key);
                self.poll_armed = Some(t);
                true
            }
            _ => false,
        }
    }
}

/// Ingest: feed one parsed packet to an association, read in place
/// ([`Association::handle_view`]). What it sends and the signer's events
/// go to `outbox`; an S2's delivery goes straight to `out`, counted as a
/// verified S2.
pub(super) fn ingest(
    assoc: &mut Association,
    view: &PacketView<'_>,
    now: Timestamp,
    rng: &mut dyn RngCore,
    outbox: &mut Outbox,
    out: &mut EngineOutput,
) -> Result<(), ProtocolError> {
    if let Some(v) = assoc.handle_view(view, now, rng, outbox)? {
        if let Some(payload) = v.delivered {
            out.deliver(view.assoc_id, v.seq, payload);
            out.pending.s2_verified += 1;
        }
    }
    Ok(())
}

/// Map a host-side protocol rejection onto the drop taxonomy.
pub(super) fn protocol_drop_reason(e: ProtocolError) -> DropReason {
    match e {
        ProtocolError::Chain(_) => DropReason::BadChainElement,
        ProtocolError::BadMac | ProtocolError::BadAuth => DropReason::BadMac,
        ProtocolError::UnexpectedPacket | ProtocolError::NoExchange => DropReason::Unsolicited,
        ProtocolError::WrongAssociation => DropReason::UnknownAssociation,
        _ => DropReason::Malformed,
    }
}

impl EngineCore {
    /// Host state at the start of its engine life: nothing in flight,
    /// idle clock started at `now`, no renewal pending. `limiter` is a
    /// new flow's fresh bucket, or the one the flow was charged on
    /// while connecting or asleep.
    pub(super) fn fresh_host(
        &self,
        assoc: Association,
        adapt: Option<Box<FlowAdapt>>,
        limiter: S1Limiter,
        now: Timestamp,
    ) -> FlowState {
        FlowState::Host(HostFlow {
            assoc: Box::new(assoc),
            inflight_since: None,
            adapt,
            last_seen: now,
            idle_deadline: self
                .cfg
                .hibernate_after
                .map_or(Timestamp::ZERO, |us| now.plus_micros(us)),
            renewal: RenewalSlot::Idle,
            poll_armed: None,
            limiter,
        })
    }

    /// Fresh per-flow adaptation state, when the engine enables it.
    pub(super) fn new_adapt(&self) -> Option<Box<FlowAdapt>> {
        self.cfg.adapt.map(|c| Box::new(FlowAdapt::new(c)))
    }

    /// A fresh host flow's S1 / HS1 bucket.
    pub(super) fn new_limiter(&self) -> S1Limiter {
        S1Limiter::new(self.cfg.s1_bytes_per_sec)
    }

    /// Install-and-arm: `state` becomes `key`'s flow state and every
    /// deadline it owns goes on the wheel — a connecting flow's resend;
    /// a host flow's protocol poll, idle check (when hibernation is on)
    /// and `Scheduled` renewal. The state brings no wheel entry under
    /// `key` with it (it is new, thawed, or moved from another key), so
    /// a host flow's poll is armed afresh. Returns the state displaced
    /// at `key`, if any.
    pub(super) fn install(
        &self,
        shard: &mut Shard,
        key: FlowKey,
        mut state: FlowState,
    ) -> Option<FlowState> {
        let hibernation = self.cfg.hibernate_after.is_some();
        let due = match &mut state {
            FlowState::Connecting { next_resend, .. } => [Some(*next_resend), None, None],
            FlowState::Host(flow) => {
                flow.poll_armed = flow.assoc.poll_at();
                [
                    flow.poll_armed,
                    hibernation.then_some(flow.idle_deadline),
                    match flow.renewal {
                        RenewalSlot::Scheduled(due) => Some(due),
                        _ => None,
                    },
                ]
            }
            FlowState::Hibernated { .. } | FlowState::Relay { .. } => [None; 3],
        };
        let prev = shard.flows.insert(key, state);
        for t in due.into_iter().flatten() {
            shard.wheel.schedule(t, key);
        }
        self.cache_deadline(shard);
        prev
    }

    /// Install an already-established host association (e.g. from an
    /// out-of-band or authenticated handshake) as a flow toward `peer`.
    pub fn add_host(&self, peer: SocketAddr, assoc: Association, now: Timestamp) -> FlowKey {
        let key = FlowKey {
            peer,
            assoc_id: assoc.assoc_id(),
        };
        let idx = self.shard_index(&key);
        let flow = self.fresh_host(assoc, self.new_adapt(), self.new_limiter(), now);
        self.install(&mut self.shards.write(idx), key, flow);
        self.metrics.flows_active.fetch_add(1, Ordering::Relaxed);
        key
    }

    /// Start an (unprotected) handshake toward `peer`: emits the HS1
    /// and arms jittered exponential resends until HS2 arrives or the
    /// retry budget runs out. Completion is reported through
    /// [`EngineOutput::completed`].
    pub fn connect(
        &self,
        peer: SocketAddr,
        assoc_id: u64,
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> (FlowKey, EngineOutput) {
        let mut out = EngineOutput::default();
        let (hs, pkt) = bootstrap::initiate(self.cfg.protocol, assoc_id, None, rng);
        let wire = pkt.emit();
        let key = FlowKey { peer, assoc_id };
        let mut backoff = Backoff::handshake();
        let next_resend = now.plus_micros(backoff.next_delay(rng).as_micros() as u64);
        let idx = self.shard_index(&key);
        let state = FlowState::Connecting {
            hs: Some(Box::new(hs)),
            wire: wire.clone(),
            backoff,
            started: now,
            next_resend,
            limiter: self.new_limiter(),
        };
        self.install(&mut self.shards.write(idx), key, state);
        self.metrics.flows_active.fetch_add(1, Ordering::Relaxed);
        self.push_bytes(&mut out, peer, &wire);
        self.publish(&mut out);
        (key, out)
    }

    /// Unknown flow: if it is an HS1 and this engine accepts
    /// handshakes, stand up a new host association and reply with HS2.
    pub(super) fn accept_handshake(
        &self,
        key: FlowKey,
        view: &PacketView<'_>,
        wire_len: usize,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        let is_hs1 = matches!(&view.body, BodyView::Handshake(h) if h.role == HandshakeRole::Init);
        if !self.cfg.accept_handshakes || !is_hs1 {
            self.metrics.record_drop(DropReason::UnknownAssociation);
            return;
        }
        match bootstrap::respond_view(self.cfg.protocol, view, None, AuthRequirement::None, rng) {
            Ok((assoc, reply, _key)) => {
                let idx = self.shard_index(&key);
                let mut limiter = self.new_limiter();
                limiter.allow(wire_len as u64, now); // charge the HS1
                let flow = self.fresh_host(assoc, self.new_adapt(), limiter, now);
                self.install(&mut self.shards.write(idx), key, flow);
                self.metrics.flows_active.fetch_add(1, Ordering::Relaxed);
                self.metrics.handshakes.fetch_add(1, Ordering::Relaxed);
                out.completed.push(key);
                let mut frame = self.pool.checkout();
                reply.encode_into(frame.buf_mut());
                out.push_datagram(key.peer, frame);
            }
            Err(_) => self.metrics.record_drop(DropReason::Malformed),
        }
    }

    /// Connecting flow: try to finish the handshake with this packet.
    pub(super) fn complete_handshake(
        &self,
        mut shard: RwLockWriteGuard<'_, Shard>,
        key: FlowKey,
        view: &PacketView<'_>,
        now: Timestamp,
        out: &mut EngineOutput,
    ) {
        let is_hs2 = matches!(&view.body, BodyView::Handshake(h) if h.role == HandshakeRole::Reply)
            && view.assoc_id == key.assoc_id;
        if !is_hs2 {
            // Everything but an HS2 reply is noise while connecting
            // (e.g. a duplicated HS1 reflection).
            self.metrics.record_drop(DropReason::Unsolicited);
            return;
        }
        let Some(FlowState::Connecting {
            hs,
            started,
            limiter,
            ..
        }) = shard.flows.get_mut(&key)
        else {
            return;
        };
        let (started, limiter) = (*started, limiter.clone());
        let Some(hs) = hs.take() else {
            return;
        };
        match hs.complete_view(view, AuthRequirement::None) {
            Ok((assoc, _peer_key)) => {
                let flow = self.fresh_host(assoc, self.new_adapt(), limiter, now);
                self.install(&mut shard, key, flow);
                self.metrics.handshakes.fetch_add(1, Ordering::Relaxed);
                self.metrics.handshake_us.record(now.since(started));
                out.completed.push(key);
            }
            Err(_) => {
                // Unrecoverable (the handshaker is consumed): drop the
                // flow; a caller-level retry starts a fresh connect.
                shard.flows.remove(&key);
                self.metrics.flows_active.fetch_sub(1, Ordering::Relaxed);
                self.metrics.record_drop(DropReason::Malformed);
            }
        }
    }

    /// Run `f` against the flow's association (any flow whose state is
    /// an established host). Returns `None` for unknown or non-host
    /// flows.
    pub fn with_association<R>(
        &self,
        key: FlowKey,
        f: impl FnOnce(&mut Association) -> R,
    ) -> Option<R> {
        let idx = self.shard_index(&key);
        let mut shard = self.shards.write(idx);
        match shard.flows.get_mut(&key) {
            Some(FlowState::Host(flow)) => Some(f(&mut flow.assoc)),
            _ => None,
        }
    }

    /// Whether a host flow has no exchange in flight.
    #[must_use]
    pub fn flow_is_idle(&self, key: FlowKey) -> bool {
        self.with_association(key, |a| a.signer().is_idle())
            .unwrap_or(false)
    }

    /// Sign and stage a batch on an established host flow.
    pub fn sign_batch(
        &self,
        key: FlowKey,
        messages: &[&[u8]],
        mode: Mode,
        now: Timestamp,
    ) -> Result<EngineOutput, EngineError> {
        self.sign_on_flow(key, messages, Some(mode), now)
            .map(|(_, out)| out)
    }

    /// Sign a bundle whose mode and size the flow's controller picks
    /// from its channel estimate: up to `min(n*, messages.len())`
    /// messages are consumed, front first. Returns how many were taken
    /// plus the staged output; the caller re-offers the remainder after
    /// the exchange completes. Flows without adaptation (engine built
    /// without [`EngineConfig::with_adapt`](super::EngineConfig::with_adapt))
    /// take everything in the protocol config's mode.
    pub fn sign_adaptive(
        &self,
        key: FlowKey,
        messages: &[&[u8]],
        now: Timestamp,
    ) -> Result<(usize, EngineOutput), EngineError> {
        self.sign_on_flow(key, messages, None, now)
    }

    /// Shared signing path: `fixed` forces a mode (classic
    /// `sign_batch`), `None` asks the flow's controller. The S1 is
    /// encoded once, and so is every S2, kept by the exchange for the
    /// A1.
    fn sign_on_flow(
        &self,
        key: FlowKey,
        messages: &[&[u8]],
        fixed: Option<Mode>,
        now: Timestamp,
    ) -> Result<(usize, EngineOutput), EngineError> {
        let mut out = EngineOutput::default();
        let idx = self.shard_index(&key);
        let mut guard = self.shards.write(idx);
        let shard = &mut *guard;
        let Some(state) = shard.flows.get_mut(&key) else {
            return Err(EngineError::UnknownFlow(key));
        };
        let FlowState::Host(flow) = state else {
            return Err(EngineError::NotAHostFlow(key));
        };
        let (mode, take) = match (fixed, flow.adapt.as_ref()) {
            (Some(mode), _) => (mode, messages.len()),
            (None, Some(a)) => a.plan(messages.len()),
            (None, None) => (self.cfg.protocol.mode, messages.len()),
        };
        let mut outbox = Outbox::default();
        flow.assoc
            .sign_into(&messages[..take], mode, now, &mut outbox)?;
        flow.inflight_since = Some(now);
        flow.last_seen = now;
        if let Some(a) = flow.adapt.as_mut() {
            let payload: u64 = messages[..take].iter().map(|m| m.len() as u64).sum();
            a.begin_exchange(mode, take, payload, now);
            a.observe_encoded(outbox.packets(), &[]);
        }
        if flow.arm_poll(&mut shard.wheel, key) {
            self.cache_deadline(shard);
        }
        drop(guard);
        self.push_packets(&mut out, key.peer, outbox.packets());
        self.publish(&mut out);
        Ok((take, out))
    }

    /// Run `f` against the flow's adaptation state; `None` for unknown
    /// flows, non-host flows, or engines without adaptation.
    pub fn with_adapt<R>(&self, key: FlowKey, f: impl FnOnce(&FlowAdapt) -> R) -> Option<R> {
        let idx = self.shard_index(&key);
        let shard = self.shards.read(idx);
        match shard.flows.get(&key) {
            Some(FlowState::Host(HostFlow { adapt: Some(a), .. })) => Some(f(a)),
            _ => None,
        }
    }

    /// Established host flow (`ingress` passes the held shard lock in):
    /// ingest the packet, settle what it produced.
    pub(super) fn host_handle(
        &self,
        mut guard: RwLockWriteGuard<'_, Shard>,
        key: FlowKey,
        view: &PacketView<'_>,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        let shard = &mut *guard;
        let Some(FlowState::Host(flow)) = shard.flows.get_mut(&key) else {
            return;
        };
        if let Some(a) = flow.adapt.as_mut() {
            if view.packet_type() == PacketType::A1 {
                a.on_a1(now);
            }
        }
        let mut outbox = out.lend_outbox();
        match ingest(&mut flow.assoc, view, now, rng, &mut outbox, out) {
            Ok(()) => {
                self.settle(&mut shard.wheel, key, flow, &mut outbox, now, Some(rng));
                self.cache_deadline(shard);
                drop(guard);
                self.push_packets(out, key.peer, outbox.packets());
            }
            Err(e) => {
                drop(guard);
                self.metrics.record_drop(protocol_drop_reason(e));
            }
        }
        out.return_outbox(outbox);
    }

    /// A run of consecutive S2s of one association from one datagram
    /// (`ingress` groups them, as `relay_datagram` does). A resident
    /// host flow verifies the whole run under one shard lock, with one
    /// flow lookup and one settle: deliveries go straight into
    /// `out.delivered`, each A2 verdict out as its own datagram as a
    /// packet-by-packet pass would send it. Any other flow state
    /// (connecting, hibernated, unknown) takes the per-packet path.
    pub(super) fn host_s2_run(
        &self,
        key: FlowKey,
        slices: &[&[u8]],
        views: &[Option<PacketView<'_>>],
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        let idx = self.shard_index(&key);
        let mut guard = self.shards.write(idx);
        let shard = &mut *guard;
        let Some(FlowState::Host(flow)) = shard.flows.get_mut(&key) else {
            drop(guard);
            for (slice, view) in slices.iter().zip(views) {
                if let Some(view) = view {
                    self.host_packet(key.peer, slice, view, now, rng, out);
                }
            }
            return;
        };
        // S2s verify or drop, they are never refused at admission
        // (`admit` vets S1 / HS1 only), so the whole run goes in.
        let items = s2_run_items(views);
        let run = &items[..views.len()];
        let mut verdicts = [Err(ProtocolError::NoExchange); MAX_BUNDLE];
        let verdicts = &mut verdicts[..run.len()];
        let mut outbox = out.lend_outbox();
        flow.assoc
            .handle_s2_run(key.assoc_id, run, now, &mut outbox, verdicts);
        let mut delivered = 0;
        let mut verified = false;
        out.delivered.reserve(run.len());
        for verdict in verdicts.iter() {
            match verdict {
                Ok(v) => {
                    verified = true;
                    if let Some(payload) = v.delivered {
                        // The one payload copy on the delivery path.
                        out.deliver(key.assoc_id, v.seq, payload);
                        delivered += 1;
                    }
                }
                Err(e) => self.metrics.record_drop(protocol_drop_reason(*e)),
            }
        }
        if verified {
            self.settle(&mut shard.wheel, key, flow, &mut outbox, now, Some(rng));
            self.cache_deadline(shard);
            drop(guard);
            out.pending.s2_verified += delivered;
            for reply in outbox.packets() {
                self.push_bytes(out, key.peer, reply);
            }
        }
        out.return_outbox(outbox);
    }

    /// Settle: fold what one protocol call left in `outbox` into the
    /// flow's engine state — RTT sample, adaptation, renewal lifecycle,
    /// next poll deadline — under the shard write lock, on the datagram,
    /// thaw and timer paths alike. The caller then refreshes
    /// `cache_deadline`, drops the lock and sends the outbox's packets.
    ///
    /// `from_peer` (with the rng a renewal draws its chains from): the
    /// outbox answers a datagram that verified, not a timer fire. Only
    /// that proves a live peer, so only that refreshes the idle clock
    /// and may begin a chain renewal ([`EngineCore::renew_when_low`]; a
    /// timer re-offering abandoned renewals would burn a dead peer's
    /// chain).
    pub(super) fn settle(
        &self,
        wheel: &mut TimerWheel<FlowKey>,
        key: FlowKey,
        flow: &mut HostFlow,
        outbox: &mut Outbox,
        now: Timestamp,
        from_peer: Option<&mut dyn RngCore>,
    ) {
        if flow.assoc.signer().is_idle() {
            if let Some(started) = flow.inflight_since.take() {
                self.metrics.rtt_us.record(now.since(started));
            }
        }
        if let Some(a) = flow.adapt.as_mut() {
            let before = a.switches_total();
            a.observe_encoded(outbox.packets(), &outbox.events);
            self.metrics
                .adapt_switches
                .fetch_add(a.switches_total() - before, Ordering::Relaxed);
            if let Some(rto) = a.rto_us() {
                flow.assoc.set_rto_micros(rto);
            }
        }
        // Renewal lifecycle: the signer admits one exchange at a time,
        // so while an offer is outstanding the next completion or
        // abandonment verdict is the renewal's. An abandoned offer
        // frees the slot for a future attempt.
        let mut committed = false;
        if matches!(flow.renewal, RenewalSlot::Offered(_)) {
            if outbox.events.contains(&SignerEvent::ExchangeComplete) {
                if let RenewalSlot::Offered(offer) =
                    std::mem::replace(&mut flow.renewal, RenewalSlot::Idle)
                {
                    committed = flow.assoc.commit_renewal(*offer).is_ok();
                }
            } else if outbox.events.contains(&SignerEvent::ExchangeAbandoned) {
                flow.renewal = RenewalSlot::Idle;
            }
        }
        if let Some(rng) = from_peer {
            flow.last_seen = now;
            // The settle that committed fresh chains begins no renewal
            // (even a `renew_below` above a whole chain's budget must not
            // renew in a loop).
            if !committed {
                self.renew_when_low(wheel, key, flow, outbox, now, rng);
            }
        }
        flow.arm_poll(wheel, key);
    }

    /// Renewal on the datagram path: a verified datagram left the flow's
    /// signer idle with at most `renew_below` exchanges on its shorter
    /// chain ([`Association::remaining_exchanges`]), so the renewal
    /// begins right here, its S1 riding out in `outbox` — if the global
    /// pacer admits it, or unconditionally on the flow's last spare
    /// exchange, so a flow whose peer answers never reaches
    /// `ChainExhausted`. A deferred flow arms a jittered renewal timer
    /// (once), which the timer path offers if the flow goes quiet; while
    /// traffic flows, each verified datagram asks the pacer again.
    fn renew_when_low(
        &self,
        wheel: &mut TimerWheel<FlowKey>,
        key: FlowKey,
        flow: &mut HostFlow,
        outbox: &mut Outbox,
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) {
        if matches!(flow.renewal, RenewalSlot::Offered(_)) || !flow.assoc.signer().is_idle() {
            return;
        }
        let left = flow.assoc.remaining_exchanges();
        if left > self.cfg.renew_below {
            return;
        }
        if left <= 1 || self.pacer.lock().admit(now.micros()) {
            flow.renewal = self.offer_renewal(flow, now, rng, outbox);
            return;
        }
        self.metrics
            .store
            .renewals_deferred
            .fetch_add(1, Ordering::Relaxed);
        if matches!(flow.renewal, RenewalSlot::Idle) {
            let due = now.plus_micros(self.pacer.lock().jitter_us(key.stable_hash()));
            flow.renewal = RenewalSlot::Scheduled(due);
            wheel.schedule(due, key);
        }
    }

    /// Offer a chain renewal on a flow whose signer is idle, its S1
    /// encoded into `outbox`: the flow's new renewal slot is `Offered`,
    /// or `Idle` when the signature chain cannot carry the offer.
    pub(super) fn offer_renewal(
        &self,
        flow: &mut HostFlow,
        now: Timestamp,
        rng: &mut dyn RngCore,
        outbox: &mut Outbox,
    ) -> RenewalSlot {
        let Ok(offer) = flow.assoc.begin_renewal_into(now, rng, outbox) else {
            return RenewalSlot::Idle;
        };
        flow.inflight_since = Some(now);
        self.metrics
            .store
            .renewals_started
            .fetch_add(1, Ordering::Relaxed);
        RenewalSlot::Offered(Box::new(offer))
    }
}
