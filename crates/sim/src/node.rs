//! Simulator nodes: endpoints, relays, and attackers.
//!
//! Endpoints wrap an [`alpha_core::Association`] plus a scripted
//! application. Every ALPHA-aware relay is the
//! [`alpha_engine::EngineCore`] the `alpha` binary runs: an
//! [`EngineRelayNode`] serves the endpoint pairs its topology builder
//! routes through it, as `alpha engine serve --route` does, and a
//! [`MeshRelayNode`] adds the mesh control plane. Both count what their
//! engine judged on the node, each drop under its engine reason label.
//! [`Node::DumbRelay`] forwards without looking; attackers inject or
//! replay traffic. All protocol work happens in the real state machines
//! — the node layer only moves frames and timestamps around.

use std::sync::atomic::Ordering::Relaxed;

use alpha_core::{bootstrap, Association, Config, DropReason, Mode, RelayConfig, Timestamp};
use alpha_crypto::Digest;
use alpha_engine::metrics::drop_label;
use alpha_engine::EngineCore;
use alpha_wire::limits::MAX_BUNDLE;
use alpha_wire::{bundle, Packet, PacketType, PacketView};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::device::DeviceModel;
use crate::sim::{Frame, NodeId, NodeMetrics};

/// Context handed to node handlers.
pub struct NodeCtx<'a> {
    /// This node's id.
    pub id: NodeId,
    /// Virtual time the handler runs at.
    pub now: Timestamp,
    /// Simulator RNG (deterministic per seed).
    pub rng: &'a mut StdRng,
    /// This node's metrics.
    pub metrics: &'a mut NodeMetrics,
}

/// Frames produced by a handler.
#[derive(Default)]
pub struct NodeOutput {
    /// Frames to transmit (routed by the simulator).
    pub frames: Vec<Frame>,
}

impl NodeOutput {
    fn send(&mut self, src: NodeId, dst: NodeId, pkt: &Packet) {
        self.frames.push(Frame {
            src,
            dst,
            bytes: pkt.emit(),
        });
    }

    /// Send several packets to one destination as piggyback bundles
    /// (§3.2.1), chunked at the wire's bundle limit.
    fn send_all(&mut self, src: NodeId, dst: NodeId, pkts: &[Packet]) {
        match pkts {
            [] => {}
            [one] => self.send(src, dst, one),
            many => {
                for chunk in many.chunks(MAX_BUNDLE) {
                    // `chunks` yields 1..=MAX_BUNDLE packets, so only a
                    // packet longer than the bundle's u16 length prefix
                    // can be refused: that chunk goes out unbundled.
                    match bundle::emit(chunk) {
                        Ok(bytes) => self.frames.push(Frame { src, dst, bytes }),
                        Err(_) => chunk.iter().for_each(|p| self.send(src, dst, p)),
                    }
                }
            }
        }
    }
}

/// A scripted traffic source on an endpoint.
#[derive(Debug, Clone)]
pub struct SenderApp {
    /// Messages per exchange (1 for Base).
    pub batch: usize,
    /// Mode for each exchange.
    pub mode: Mode,
    /// Bytes per message (≥ 16; a latency header is embedded).
    pub payload_len: usize,
    /// Total messages to deliver.
    pub total_messages: usize,
    /// Gap between exchange completions and the next send (µs).
    pub interval_us: u64,
    pub(crate) sent: usize,
    pub(crate) next_send: Timestamp,
    /// Messages in the exchange currently in flight; re-offered if the
    /// signer abandons it (so path failures delay, not lose, traffic).
    pub(crate) inflight: usize,
}

impl SenderApp {
    /// A stream of `total` messages of `len` bytes, `batch` per exchange
    /// (one in Base mode, whose exchange carries one message).
    #[must_use]
    pub fn new(mode: Mode, batch: usize, len: usize, total: usize) -> SenderApp {
        SenderApp {
            batch: if mode == Mode::Base { 1 } else { batch.max(1) },
            mode,
            payload_len: len.max(16),
            total_messages: total,
            interval_us: 0,
            sent: 0,
            next_send: Timestamp::ZERO,
            inflight: 0,
        }
    }

    /// Messages handed to the protocol so far.
    #[must_use]
    pub fn sent(&self) -> usize {
        self.sent
    }
}

/// Endpoint application behaviours.
#[derive(Debug, Clone)]
pub enum App {
    /// Pure receiver.
    Sink,
    /// Scripted sender.
    Sender(SenderApp),
    /// Request-responder: echoes every delivered payload back to the peer
    /// through its own signing channel (exercises the full-duplex design:
    /// each host is signer *and* verifier, §3.1).
    Echo {
        /// Payloads delivered but not yet echoed (the signer processes one
        /// exchange at a time).
        pending: Vec<Vec<u8>>,
        /// Echoes dispatched so far.
        echoed: u64,
    },
    /// A sender whose mode and bundle size are chosen per exchange by the
    /// adaptation plane: `app.mode` and `app.batch` are ignored as fixed
    /// values — `batch` only caps how many messages are available per
    /// exchange, and the controller picks the mode and the actual bundle.
    Adaptive {
        /// The underlying traffic script.
        app: SenderApp,
        /// Per-flow estimator + controller.
        adapt: Box<alpha_adapt::FlowAdapt>,
    },
}

impl App {
    /// An adaptive sender of `total` messages of `len` bytes with default
    /// adaptation tunables.
    #[must_use]
    pub fn adaptive(len: usize, total: usize, cfg: alpha_adapt::AdaptConfig) -> App {
        App::Adaptive {
            app: SenderApp::new(Mode::Cumulative, cfg.max_n, len, total),
            adapt: Box::new(alpha_adapt::FlowAdapt::new(cfg)),
        }
    }

    /// Put an abandoned exchange's messages back on offer: the signer
    /// gave up (path failure, exhausted retries), so the app re-sends
    /// them in a fresh exchange rather than losing them.
    fn reoffer_abandoned(&mut self, events: &[alpha_core::SignerEvent]) {
        if !events
            .iter()
            .any(|e| matches!(e, alpha_core::SignerEvent::ExchangeAbandoned))
        {
            return;
        }
        if let App::Sender(app) | App::Adaptive { app, .. } = self {
            app.sent = app.sent.saturating_sub(app.inflight);
            app.inflight = 0;
        }
    }
}

enum EpState {
    /// Initiator before sending HS1.
    Boot,
    /// Initiator awaiting HS2.
    AwaitReply(Box<bootstrap::Handshaker>),
    /// Responder awaiting HS1 / either side ready.
    Ready(Box<Association>),
    /// Responder before its handshake arrives.
    Listening,
}

/// An end host: association + app script.
pub struct Endpoint {
    /// Device whose cost model prices this node's crypto.
    pub device: DeviceModel,
    cfg: Config,
    assoc_id: u64,
    peer: NodeId,
    state: EpState,
    /// Our half of the handshake, kept for idempotent retransmission (the
    /// HS1 for initiators, the HS2 for responders).
    stored_handshake: Option<Packet>,
    last_hs_tx: Timestamp,
    /// Application behaviour.
    pub app: App,
}

impl Endpoint {
    /// An initiating endpoint (sends HS1 on its first tick).
    #[must_use]
    pub fn initiator(
        device: DeviceModel,
        cfg: Config,
        assoc_id: u64,
        peer: NodeId,
        app: App,
    ) -> Endpoint {
        Endpoint {
            device,
            cfg,
            assoc_id,
            peer,
            state: EpState::Boot,
            stored_handshake: None,
            last_hs_tx: Timestamp::ZERO,
            app,
        }
    }

    /// A responding endpoint (answers HS1).
    #[must_use]
    pub fn responder(
        device: DeviceModel,
        cfg: Config,
        assoc_id: u64,
        peer: NodeId,
        app: App,
    ) -> Endpoint {
        Endpoint {
            device,
            cfg,
            assoc_id,
            peer,
            state: EpState::Listening,
            stored_handshake: None,
            last_hs_tx: Timestamp::ZERO,
            app,
        }
    }

    /// The association once bootstrapped.
    #[must_use]
    pub fn association(&self) -> Option<&Association> {
        match &self.state {
            EpState::Ready(a) => Some(a),
            _ => None,
        }
    }

    /// True once the handshake completed.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(self.state, EpState::Ready(_))
    }

    /// Messages the sender app still wants to send.
    #[must_use]
    pub fn pending_messages(&self) -> usize {
        match &self.app {
            App::Sender(s) | App::Adaptive { app: s, .. } => {
                s.total_messages.saturating_sub(s.sent)
            }
            App::Sink => 0,
            App::Echo { pending, .. } => pending.len(),
        }
    }

    /// The adaptation state of an [`App::Adaptive`] endpoint.
    #[must_use]
    pub fn adapt(&self) -> Option<&alpha_adapt::FlowAdapt> {
        match &self.app {
            App::Adaptive { adapt, .. } => Some(adapt),
            _ => None,
        }
    }

    fn on_tick(&mut self, ctx: &mut NodeCtx<'_>, out: &mut NodeOutput) {
        match &mut self.state {
            EpState::Boot => {
                let (hs, pkt) = bootstrap::initiate(self.cfg, self.assoc_id, None, ctx.rng);
                out.send(ctx.id, self.peer, &pkt);
                self.stored_handshake = Some(pkt);
                self.last_hs_tx = ctx.now;
                self.state = EpState::AwaitReply(Box::new(hs));
            }
            EpState::AwaitReply(_) => {
                // HS1 or HS2 may have been lost: retransmit periodically.
                if ctx.now.since(self.last_hs_tx) > 500_000 {
                    if let Some(pkt) = &self.stored_handshake {
                        out.send(ctx.id, self.peer, pkt);
                        self.last_hs_tx = ctx.now;
                    }
                }
            }
            EpState::Listening => {}
            EpState::Ready(assoc) => {
                // Retransmissions / buffer expiry.
                let resp = assoc.poll(ctx.now);
                out.send_all(ctx.id, self.peer, &resp.packets);
                if let App::Adaptive { adapt, .. } = &mut self.app {
                    adapt.observe(&resp.packets, &resp.signer_events);
                }
                for ev in &resp.signer_events {
                    if matches!(ev, alpha_core::SignerEvent::ExchangeAbandoned) {
                        ctx.metrics.drop_reason("exchange-abandoned");
                    }
                }
                self.app.reoffer_abandoned(&resp.signer_events);
                // Echo app: reply to queued deliveries when idle.
                if let App::Echo { pending, echoed } = &mut self.app {
                    if !pending.is_empty() && assoc.signer().is_idle() {
                        let reply = pending.remove(0);
                        if let Ok(s1) = assoc.sign_batch(&[&reply], Mode::Base, ctx.now) {
                            *echoed += 1;
                            out.send(ctx.id, self.peer, &s1);
                        }
                    }
                }
                // App: start the next exchange when idle.
                if let App::Sender(app) = &mut self.app {
                    if app.sent < app.total_messages
                        && assoc.signer().is_idle()
                        && ctx.now >= app.next_send
                    {
                        let n = app.batch.min(app.total_messages - app.sent);
                        let msgs: Vec<Vec<u8>> = (0..n)
                            .map(|_| make_payload(app.payload_len, ctx.now, ctx.rng))
                            .collect();
                        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                        match assoc.sign_batch(&refs, app.mode, ctx.now) {
                            Ok(s1) => {
                                app.sent += n;
                                app.inflight = n;
                                app.next_send = ctx.now.plus_micros(app.interval_us);
                                out.send(ctx.id, self.peer, &s1);
                            }
                            Err(_) => ctx.metrics.drop_reason("sign-failed"),
                        }
                    }
                }
                // Adaptive app: the controller picks mode and bundle size.
                if let App::Adaptive { app, adapt } = &mut self.app {
                    if app.sent < app.total_messages
                        && assoc.signer().is_idle()
                        && ctx.now >= app.next_send
                    {
                        let available = app.batch.min(app.total_messages - app.sent);
                        let (mode, n) = adapt.plan(available);
                        let msgs: Vec<Vec<u8>> = (0..n)
                            .map(|_| make_payload(app.payload_len, ctx.now, ctx.rng))
                            .collect();
                        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                        let payload_bytes: u64 = msgs.iter().map(|m| m.len() as u64).sum();
                        match assoc.sign_batch(&refs, mode, ctx.now) {
                            Ok(s1) => {
                                app.sent += n;
                                app.inflight = n;
                                app.next_send = ctx.now.plus_micros(app.interval_us);
                                adapt.begin_exchange(mode, n, payload_bytes, ctx.now);
                                adapt.observe_packets(std::slice::from_ref(&s1));
                                out.send(ctx.id, self.peer, &s1);
                            }
                            Err(_) => ctx.metrics.drop_reason("sign-failed"),
                        }
                    }
                }
            }
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: Frame, out: &mut NodeOutput) {
        // A frame may be a piggyback bundle; process each packet in order.
        let Ok(pkts) = alpha_wire::bundle::parse(&frame.bytes) else {
            ctx.metrics.parse_errors += 1;
            return;
        };
        for pkt in pkts {
            self.on_packet(ctx, pkt, out);
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet, out: &mut NodeOutput) {
        match std::mem::replace(&mut self.state, EpState::Listening) {
            EpState::Boot => {
                self.state = EpState::Boot;
                ctx.metrics.drop_reason("not-ready");
            }
            EpState::AwaitReply(hs) => {
                match hs.complete(&pkt, bootstrap::AuthRequirement::None) {
                    Ok((assoc, _)) => {
                        self.state = EpState::Ready(Box::new(assoc));
                    }
                    Err(_) => {
                        ctx.metrics.drop_reason("handshake-failed");
                        // Handshaker consumed; restart on next tick.
                        self.state = EpState::Boot;
                    }
                }
            }
            EpState::Listening => {
                match bootstrap::respond(
                    self.cfg,
                    &pkt,
                    None,
                    bootstrap::AuthRequirement::None,
                    ctx.rng,
                ) {
                    Ok((assoc, reply, _)) => {
                        out.send(ctx.id, self.peer, &reply);
                        self.stored_handshake = Some(reply);
                        self.state = EpState::Ready(Box::new(assoc));
                    }
                    Err(_) => {
                        ctx.metrics.drop_reason("handshake-failed");
                        self.state = EpState::Listening;
                    }
                }
            }
            EpState::Ready(mut assoc) => {
                // A duplicate HS1 means our HS2 was lost: replay it.
                if matches!(pkt.body, alpha_wire::Body::Handshake(_)) {
                    if let Some(stored) = &self.stored_handshake {
                        if matches!(
                            pkt.body,
                            alpha_wire::Body::Handshake(alpha_wire::Handshake {
                                role: alpha_wire::HandshakeRole::Init,
                                ..
                            })
                        ) {
                            out.send(ctx.id, self.peer, stored);
                        }
                    }
                    self.state = EpState::Ready(assoc);
                    return;
                }
                if let App::Adaptive { adapt, .. } = &mut self.app {
                    if matches!(pkt.body, alpha_wire::Body::A1 { .. }) {
                        adapt.on_a1(ctx.now);
                    }
                }
                match assoc.handle(&pkt, ctx.now, ctx.rng) {
                    Ok(resp) => {
                        out.send_all(ctx.id, self.peer, &resp.packets);
                        if let App::Adaptive { adapt, .. } = &mut self.app {
                            adapt.observe(&resp.packets, &resp.signer_events);
                            // Close the loop onto the live timers: the
                            // measured RFC 6298 RTO replaces the static
                            // configured constant.
                            if let Some(rto) = adapt.rto_us() {
                                assoc.set_rto_micros(rto);
                            }
                        }
                        for ev in &resp.signer_events {
                            if matches!(ev, alpha_core::SignerEvent::ExchangeAbandoned) {
                                ctx.metrics.drop_reason("exchange-abandoned");
                            }
                        }
                        self.app.reoffer_abandoned(&resp.signer_events);
                        for (_seq, payload) in &resp.deliveries {
                            ctx.metrics.delivered_msgs += 1;
                            ctx.metrics.delivered_bytes += payload.len() as u64;
                            if let Some(sent_at) = payload_timestamp(payload) {
                                ctx.metrics.latencies_us.push(ctx.now.since(sent_at));
                            }
                            if let App::Echo { pending, .. } = &mut self.app {
                                pending.push(payload.clone());
                            }
                        }
                    }
                    Err(_) => ctx.metrics.drop_reason("protocol-error"),
                }
                self.state = EpState::Ready(assoc);
            }
        }
    }
}

/// App payload layout: 8-byte send timestamp (µs, BE) then random filler.
fn make_payload(len: usize, now: Timestamp, rng: &mut StdRng) -> Vec<u8> {
    let mut p = vec![0u8; len.max(16)];
    p[..8].copy_from_slice(&now.micros().to_be_bytes());
    rng.fill_bytes(&mut p[8..]);
    p
}

fn payload_timestamp(payload: &[u8]) -> Option<Timestamp> {
    if payload.len() < 8 {
        return None;
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&payload[..8]);
    Some(Timestamp::from_micros(u64::from_be_bytes(b)))
}

/// An ALPHA-aware forwarder: the multi-flow [`EngineCore`] that `alpha
/// engine serve --route` runs, under simulated time. Every flow it
/// relays shares one flow table, one admission policy and one metrics
/// registry. It serves only the endpoint pairs it was built with: a
/// datagram from any other source meets the engine's host path, which
/// takes no handshakes here, and is dropped.
pub struct EngineRelayNode {
    /// Device pricing this relay's verification work.
    pub device: DeviceModel,
    /// The multi-flow engine core.
    pub core: EngineCore,
}

/// Synthetic address for a simulator node, so the address-keyed engine
/// can run inside the node-id-keyed simulator.
#[must_use]
pub fn sim_node_addr(id: NodeId) -> std::net::SocketAddr {
    std::net::SocketAddr::from(([10, 255, (id >> 8) as u8, id as u8], 7000))
}

/// Inverse of [`sim_node_addr`]: recover the node id from a synthetic
/// address (`None` for addresses outside the simulator's range).
#[must_use]
pub fn sim_addr_node(addr: std::net::SocketAddr) -> Option<NodeId> {
    match addr {
        std::net::SocketAddr::V4(v4) if v4.port() == 7000 => {
            let o = v4.ip().octets();
            (o[0] == 10 && o[1] == 255).then_some(((o[2] as NodeId) << 8) | o[3] as NodeId)
        }
        _ => None,
    }
}

/// A relay engine for a deployment on `protocol`, with `relay` as its
/// policy; it stands up no host flows.
fn relay_engine(protocol: Config, relay: RelayConfig) -> EngineCore {
    let mut ecfg = alpha_engine::EngineConfig::new(protocol);
    ecfg.relay = relay;
    ecfg.accept_handshakes = false;
    EngineCore::new(ecfg)
}

/// Every [`DropReason`], so an engine's drops can be read back by reason.
const DROP_REASONS: [DropReason; 7] = [
    DropReason::BadChainElement,
    DropReason::BadMac,
    DropReason::Unsolicited,
    DropReason::BadVerdict,
    DropReason::RateLimited,
    DropReason::UnknownAssociation,
    DropReason::Malformed,
];

/// Hand the datagram `bytes`, received from node `from`, to a relay's
/// engine, and send what it forwards from node `src` toward the hop its
/// routes name. What the engine judged is counted on the node: each drop
/// under its engine reason label, a datagram that does not decode as a
/// parse error, each payload verified in transit.
fn engine_relay_step(
    core: &EngineCore,
    ctx: &mut NodeCtx<'_>,
    from: NodeId,
    src: NodeId,
    bytes: &[u8],
    out: &mut NodeOutput,
) {
    let m = core.metrics();
    let drops = DROP_REASONS.map(|r| m.drops(r));
    let parse_errors = m.parse_errors.load(Relaxed);
    let engine_out = core.handle_datagram(sim_node_addr(from), bytes, ctx.now, ctx.rng);
    for (reason, before) in DROP_REASONS.into_iter().zip(drops) {
        for _ in before..m.drops(reason) {
            ctx.metrics.drop_reason(drop_label(reason));
        }
    }
    for _ in parse_errors..m.parse_errors.load(Relaxed) {
        ctx.metrics.parse_errors += 1;
        ctx.metrics.drop_reason("parse-error");
    }
    ctx.metrics.extracted_payloads += engine_out.extracted.len() as u64;
    for (dst_addr, bytes) in engine_out.datagrams {
        let Some(dst) = sim_addr_node(dst_addr) else {
            ctx.metrics.drop_reason("no-such-peer");
            continue;
        };
        ctx.metrics.forwarded += 1;
        out.frames.push(Frame {
            src,
            dst,
            bytes: bytes.into_vec(),
        });
    }
}

impl EngineRelayNode {
    /// Engine relay for a deployment on `protocol` with the given relay
    /// policy, serving each `(a, b)` endpoint pair of `routes` in both
    /// directions.
    #[must_use]
    pub fn new(
        device: DeviceModel,
        protocol: Config,
        cfg: RelayConfig,
        routes: &[(NodeId, NodeId)],
    ) -> EngineRelayNode {
        let core = relay_engine(protocol, cfg);
        for &(a, b) in routes {
            core.add_route(sim_node_addr(a), sim_node_addr(b));
        }
        EngineRelayNode { device, core }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: Frame, out: &mut NodeOutput) {
        // End-to-end addressing: the engine sees the originating
        // endpoint as the source, and what passes keeps it as the
        // frame's.
        engine_relay_step(&self.core, ctx, frame.src, frame.src, &frame.bytes, out);
    }
}

/// A mesh relay: the multi-flow engine in mesh mode plus the alpha-mesh
/// control plane, under simulated time. Beyond [`EngineRelayNode`] it
/// accepts traffic from its static upstream set only (the paper's
/// bypass defense, §3.5), re-addresses frames hop-by-hop, answers
/// liveness probes, probes its own peers, and fails live flows over to
/// a standby when the registry declares a peer down.
pub struct MeshRelayNode {
    /// Device pricing this relay's verification work.
    pub device: DeviceModel,
    /// The multi-flow engine core (mesh role enabled).
    pub core: EngineCore,
    /// The peer table driving liveness and admission.
    pub registry: alpha_mesh::Registry,
    forward: alpha_mesh::PathSelector,
    reverse: alpha_mesh::PathSelector,
    /// Set false to simulate a crashed relay: it swallows every frame
    /// and stops probing (its peers' registries notice).
    pub alive: bool,
}

impl MeshRelayNode {
    /// A mesh relay for a deployment on `protocol`, wired into a static
    /// topology: it accepts traffic from `upstreams` only, forwards
    /// toward `next_hops[0]` (the rest are standbys that receive
    /// handshake replicas), and statically routes each of
    /// `route_sources` toward the primary next hop.
    #[must_use]
    pub fn new(
        device: DeviceModel,
        protocol: Config,
        relay_cfg: RelayConfig,
        mesh_cfg: alpha_mesh::MeshConfig,
        upstreams: &[NodeId],
        next_hops: &[NodeId],
        route_sources: &[NodeId],
    ) -> MeshRelayNode {
        let core = relay_engine(protocol, relay_cfg);
        core.mesh_enable(true);
        let mut registry = alpha_mesh::Registry::new(mesh_cfg);
        // Probe peers only where failover between them is possible: a
        // lone next hop may be the chain's verifier (a plain endpoint
        // that answers no probes), just as a lone upstream may be the
        // sending host.
        let probe_next_hops = next_hops.len() >= 2;
        for (i, &hop) in next_hops.iter().enumerate() {
            let addr = sim_node_addr(hop);
            let counters = core.mesh_register_peer(addr);
            let role = if i == 0 {
                alpha_mesh::PeerRole::NextHop
            } else {
                core.mesh_add_standby(addr);
                alpha_mesh::PeerRole::Standby
            };
            registry.join(addr, role, probe_next_hops);
            registry.peer_mut(addr).expect("just joined").counters = Some(counters);
        }
        // A lone upstream is this node's traffic source (possibly a
        // plain host); only probe upstreams when there are enough of
        // them for reverse-path failover to mean anything.
        let probe_upstreams = upstreams.len() >= 2;
        for &up in upstreams {
            let addr = sim_node_addr(up);
            let counters = core.mesh_register_peer(addr);
            registry.join(addr, alpha_mesh::PeerRole::Upstream, probe_upstreams);
            registry.peer_mut(addr).expect("just joined").counters = Some(counters);
        }
        if let Some(&primary) = next_hops.first() {
            for &src in route_sources {
                core.add_route(sim_node_addr(src), sim_node_addr(primary));
            }
        }
        let forward =
            alpha_mesh::PathSelector::new(next_hops.iter().map(|&h| sim_node_addr(h)).collect());
        let reverse = alpha_mesh::PathSelector::new(if probe_upstreams {
            upstreams.iter().map(|&u| sim_node_addr(u)).collect()
        } else {
            Vec::new()
        });
        MeshRelayNode {
            device,
            core,
            registry,
            forward,
            reverse,
            alive: true,
        }
    }

    /// Crash this relay: frames are swallowed, probes go unanswered.
    pub fn kill(&mut self) {
        self.alive = false;
    }

    /// Reroutes this relay has applied (forward + reverse).
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.core.metrics().mesh.failovers.load(Relaxed)
    }

    fn apply_events(&mut self, events: &[alpha_mesh::MeshEvent]) {
        for e in events {
            if let Some((old, new)) = self.forward.on_event(&self.registry, e) {
                self.core.reroute(old, new);
            }
            if let Some((old, new)) = self.reverse.on_event(&self.registry, e) {
                self.core.reroute(old, new);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut NodeCtx<'_>, out: &mut NodeOutput) {
        if !self.alive {
            return;
        }
        let poll = self.registry.poll(ctx.now);
        for (peer, bytes) in poll.probes {
            if let Some(dst) = sim_addr_node(peer) {
                out.frames.push(Frame {
                    src: ctx.id,
                    dst,
                    bytes,
                });
            }
        }
        self.apply_events(&poll.events);
    }

    fn on_frame(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        hop_from: NodeId,
        frame: Frame,
        out: &mut NodeOutput,
    ) {
        if !self.alive {
            ctx.metrics.drop_reason("dead-relay");
            return;
        }
        use alpha_engine::mesh;
        // Control plane first, mirroring the transport workers: probes
        // and replicas sit below the upstream-set filter.
        if let Some(nonce) = mesh::parse_ping(&frame.bytes) {
            out.frames.push(Frame {
                src: ctx.id,
                dst: hop_from,
                bytes: mesh::encode_pong(nonce),
            });
            return;
        }
        if mesh::parse_pong(&frame.bytes).is_some() {
            let events = self
                .registry
                .on_pong(sim_node_addr(hop_from), &frame.bytes, ctx.now);
            self.apply_events(&events);
            return;
        }
        // Hop-by-hop semantics: the engine sees the *previous hop* as
        // the source, not the originating endpoint.
        let from = sim_node_addr(hop_from);
        if let Some(inner) = mesh::parse_replica(&frame.bytes) {
            self.core.absorb_replica(from, inner, ctx.now, ctx.rng);
            return;
        }
        // Each emitted datagram goes to the hop the engine's static
        // routes picked (the next relay, standby, or host).
        engine_relay_step(&self.core, ctx, hop_from, ctx.id, &frame.bytes, out);
    }
}

/// Adversarial nodes.
pub enum Attacker {
    /// Injects forged S1 packets toward a victim at a fixed rate —
    /// the S1-flood of §3.5.
    Flooder {
        /// Victim node.
        dst: NodeId,
        /// Association id to claim.
        assoc_id: u64,
        /// Hash algorithm to mimic.
        alg: alpha_crypto::Algorithm,
        /// Packets per tick.
        per_tick: u32,
        /// Forged packets injected so far.
        injected: u64,
    },
    /// A compromised forwarder: relays everything verbatim and re-injects
    /// each frame once after `delay_us` (replay attack).
    ReplayRelay {
        /// Replay delay (µs).
        delay_us: u64,
        /// Captured frames awaiting replay.
        pending: Vec<(Timestamp, Frame)>,
        /// Frames replayed so far.
        replayed: u64,
    },
    /// A compromised forwarder that flips a payload byte in S2 packets it
    /// forwards, with the given probability (tampering insider).
    Tamperer {
        /// Probability of corrupting each S2 (0..1).
        probability: f64,
        /// Frames tampered so far.
        tampered: u64,
    },
}

impl Attacker {
    fn on_tick(&mut self, ctx: &mut NodeCtx<'_>, out: &mut NodeOutput) {
        match self {
            Attacker::Flooder {
                dst,
                assoc_id,
                alg,
                per_tick,
                injected,
            } => {
                for _ in 0..*per_tick {
                    let mut fake = [0u8; 32];
                    ctx.rng.fill_bytes(&mut fake);
                    let element = Digest::from_slice(&fake[..alg.digest_len()]);
                    let mac = Digest::from_slice(&fake[..alg.digest_len()]);
                    let pkt = Packet {
                        assoc_id: *assoc_id,
                        alg: *alg,
                        chain_index: 999,
                        body: alpha_wire::Body::S1 {
                            element,
                            presig: alpha_wire::PreSignature::Cumulative(vec![mac]),
                        },
                    };
                    out.send(ctx.id, *dst, &pkt);
                    *injected += 1;
                }
            }
            Attacker::ReplayRelay {
                delay_us: _,
                pending,
                replayed,
            } => {
                let due: Vec<Frame> = {
                    let now = ctx.now;
                    let (ready, later): (Vec<_>, Vec<_>) =
                        pending.drain(..).partition(|(at, _)| *at <= now);
                    *pending = later;
                    ready.into_iter().map(|(_, f)| f).collect()
                };
                for f in due {
                    *replayed += 1;
                    out.frames.push(f);
                }
            }
            Attacker::Tamperer { .. } => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: Frame, out: &mut NodeOutput) {
        match self {
            Attacker::Flooder { .. } => {
                // Floods, never forwards: swallow traffic addressed here.
                ctx.metrics.drop_reason("attacker-sink");
            }
            Attacker::ReplayRelay {
                delay_us, pending, ..
            } => {
                pending.push((ctx.now.plus_micros(*delay_us), frame.clone()));
                out.frames.push(frame);
            }
            Attacker::Tamperer {
                probability,
                tampered,
            } => {
                let mut frame = frame;
                if let Ok(view) = PacketView::parse(&frame.bytes) {
                    if view.packet_type() == PacketType::S2
                        && rand::Rng::gen_bool(ctx.rng, probability.clamp(0.0, 1.0))
                    {
                        // Flip a byte near the end (payload region).
                        let n = frame.bytes.len();
                        frame.bytes[n - 1] ^= 0x01;
                        *tampered += 1;
                    }
                }
                out.frames.push(frame);
            }
        }
    }
}

/// Any simulator node.
#[allow(clippy::large_enum_variant)] // a handful of nodes per simulation
pub enum Node {
    /// An end host.
    Endpoint(Endpoint),
    /// An ALPHA-aware forwarder: the multi-flow engine.
    EngineRelay(EngineRelayNode),
    /// An engine forwarder in mesh mode: static relay set, hop-by-hop
    /// re-addressing, liveness probing, path failover.
    MeshRelay(MeshRelayNode),
    /// A plain forwarder with no ALPHA awareness (incremental deployment).
    DumbRelay {
        /// Device model (prices nothing; dumb relays do no crypto).
        device: DeviceModel,
    },
    /// An adversary.
    Attacker {
        /// Device model for accounting.
        device: DeviceModel,
        /// Behaviour.
        attacker: Attacker,
    },
}

impl Node {
    /// The device whose cost model prices this node's computation.
    #[must_use]
    pub fn device(&self) -> &DeviceModel {
        match self {
            Node::Endpoint(e) => &e.device,
            Node::EngineRelay(r) => &r.device,
            Node::MeshRelay(r) => &r.device,
            Node::DumbRelay { device } => device,
            Node::Attacker { device, .. } => device,
        }
    }

    /// Endpoint view, if this node is one.
    #[must_use]
    pub fn as_endpoint(&self) -> Option<&Endpoint> {
        match self {
            Node::Endpoint(e) => Some(e),
            _ => None,
        }
    }

    /// Engine-relay view, if this node is one.
    #[must_use]
    pub fn as_engine_relay(&self) -> Option<&EngineRelayNode> {
        match self {
            Node::EngineRelay(r) => Some(r),
            _ => None,
        }
    }

    /// Mesh-relay view, if this node is one.
    #[must_use]
    pub fn as_mesh_relay(&self) -> Option<&MeshRelayNode> {
        match self {
            Node::MeshRelay(r) => Some(r),
            _ => None,
        }
    }

    /// Mutable mesh-relay view (e.g. to [`MeshRelayNode::kill`] it
    /// mid-run).
    pub fn as_mesh_relay_mut(&mut self) -> Option<&mut MeshRelayNode> {
        match self {
            Node::MeshRelay(r) => Some(r),
            _ => None,
        }
    }

    pub(crate) fn on_tick(&mut self, ctx: &mut NodeCtx<'_>, out: &mut NodeOutput) {
        match self {
            Node::Endpoint(e) => e.on_tick(ctx, out),
            Node::MeshRelay(r) => r.on_tick(ctx, out),
            Node::EngineRelay(_) | Node::DumbRelay { .. } => {}
            Node::Attacker { attacker, .. } => attacker.on_tick(ctx, out),
        }
    }

    pub(crate) fn on_frame(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        hop_from: NodeId,
        frame: Frame,
        out: &mut NodeOutput,
    ) {
        match self {
            Node::Endpoint(e) => e.on_frame(ctx, frame, out),
            Node::EngineRelay(r) => r.on_frame(ctx, frame, out),
            Node::MeshRelay(r) => r.on_frame(ctx, hop_from, frame, out),
            Node::DumbRelay { .. } => {
                ctx.metrics.forwarded += 1;
                out.frames.push(frame);
            }
            Node::Attacker { attacker, .. } => attacker.on_frame(ctx, frame, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reasons_cover_the_engine_snapshot() {
        // A reason left out of `DROP_REASONS` would go uncounted on the
        // node: the engine's snapshot labels every reason it counts.
        let protocol = Config::new(alpha_crypto::Algorithm::Sha1);
        let snapshot = relay_engine(protocol, RelayConfig::default())
            .metrics()
            .snapshot();
        let engine: Vec<&str> = snapshot
            .get("drops")
            .and_then(serde::Value::as_object)
            .expect("a drops object")
            .keys()
            .map(String::as_str)
            .collect();
        let mut ours: Vec<&str> = DROP_REASONS.iter().map(|&r| drop_label(r)).collect();
        ours.sort_unstable();
        assert_eq!(ours, engine);
    }
}
