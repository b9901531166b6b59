//! Datagram intake: `handle_datagram(s)`, the mesh source filter,
//! flood-vector admission, and the demux to `relay` (routed sources)
//! or, by flow state, to `host` / `lifecycle`.

use super::*;

/// Where a routed source's datagrams go, resolved once per run of
/// consecutive datagrams from it (the receive path hands a coalesced
/// burst's datagrams over back to back): the next hop, and the key
/// address and shard of the pair's relay flows.
#[derive(Clone, Copy)]
pub(super) struct Route {
    pub(super) dst: SocketAddr,
    /// The pair's canonical endpoint, which keys its relay flows.
    pub(super) left: SocketAddr,
    pub(super) shard: usize,
}

impl EngineCore {
    /// Feed one received datagram through the engine: a burst of one
    /// ([`EngineCore::handle_datagrams`]).
    ///
    /// Zero-copy path: the datagram is split into per-packet slices
    /// ([`bundle::split`]) and decoded as borrowed [`PacketView`]s; no
    /// owned packet is materialised on the relay path or the host S2
    /// path. Any malformed packet drops the whole datagram (parity with
    /// wholesale bundle parsing).
    pub fn handle_datagram(
        &self,
        from: SocketAddr,
        bytes: &[u8],
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> EngineOutput {
        self.handle_datagrams(&[(from, bytes)], now, rng)
    }

    /// Feed a burst of received datagrams through the engine in one
    /// call. Each datagram is judged exactly as it would be alone —
    /// within one datagram the relay and host paths already batch
    /// consecutive same-association S2s — but the burst shares one
    /// output, one route lookup per run of datagrams from one source,
    /// and one publication of the datagram-path counters (see
    /// [`EngineOutput`]).
    pub fn handle_datagrams(
        &self,
        batch: &[(SocketAddr, &[u8])],
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> EngineOutput {
        let mut out = EngineOutput::default();
        self.handle_datagrams_into(batch, now, rng, &mut out);
        out
    }

    /// [`EngineCore::handle_datagrams`], appending to `out`: a caller
    /// that [`EngineOutput::clear`]s one output and feeds it every burst
    /// reuses its lists, arena and delivered payload buffers.
    pub fn handle_datagrams_into(
        &self,
        batch: &[(SocketAddr, &[u8])],
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        let bytes = batch.iter().map(|(_, b)| b.len()).sum();
        out.begin_burst(batch.len(), bytes);
        let mut source: Option<(SocketAddr, Option<Route>)> = None;
        for &(from, bytes) in batch {
            let route = match source {
                Some((src, route)) if src == from => route,
                _ => {
                    let route = self.route_from(from);
                    source = Some((from, route));
                    route
                }
            };
            self.handle_datagram_into(from, route, bytes, now, rng, out);
        }
        self.publish(out);
    }

    /// One datagram of a burst, appending to the burst's output.
    fn handle_datagram_into(
        &self,
        from: SocketAddr,
        route: Option<Route>,
        bytes: &[u8],
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        out.pending.packets_in += 1;
        out.pending.bytes_in += bytes.len() as u64;
        if !self.admits_source(from) {
            return;
        }
        let mut slices: [&[u8]; MAX_BUNDLE] = [&[]; MAX_BUNDLE];
        let Ok(n) = bundle::split(bytes, &mut slices) else {
            self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut views: [Option<PacketView<'_>>; MAX_BUNDLE] = [None; MAX_BUNDLE];
        for i in 0..n {
            match PacketView::parse(slices[i]) {
                Ok(v) => views[i] = Some(v),
                Err(_) => {
                    self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        match route {
            Some(route) => self.relay_datagram(route, &slices[..n], &views[..n], now, out),
            None => {
                // Consecutive S2s of one association are verified as one
                // run; everything else packet by packet.
                let s2_of = |v: &Option<PacketView<'_>>| {
                    v.as_ref()
                        .filter(|v| matches!(v.body, BodyView::S2 { .. }))
                        .map(|v| v.assoc_id)
                };
                let mut i = 0;
                while i < n {
                    let Some(assoc_id) = s2_of(&views[i]) else {
                        if let Some(view) = &views[i] {
                            self.host_packet(from, slices[i], view, now, rng, out);
                        }
                        i += 1;
                        continue;
                    };
                    let run = views[i..n]
                        .iter()
                        .take_while(|v| s2_of(v) == Some(assoc_id))
                        .count();
                    let key = FlowKey {
                        peer: from,
                        assoc_id,
                    };
                    let (slices, views) = (&slices[i..i + run], &views[i..i + run]);
                    self.host_s2_run(key, slices, views, now, rng, out);
                    i += run;
                }
            }
        }
    }

    /// The route of a source's datagrams, if it is routed.
    fn route_from(&self, from: SocketAddr) -> Option<Route> {
        let dst = self.route_of(from)?;
        let left = canonical(from, dst);
        Some(Route {
            dst,
            left,
            shard: self.shard_of_addr(&left),
        })
    }

    /// Bypass defense: when this core is a mesh relay, traffic from a
    /// source outside the registered peer set is rejected before any
    /// parsing or flow-table work. Counts the datagram against its
    /// peer row otherwise.
    fn admits_source(&self, from: SocketAddr) -> bool {
        if !self.mesh_active.load(Ordering::Relaxed) {
            return true;
        }
        let guard = self.mesh.read();
        let Some(ctrl) = guard.as_ref() else {
            return true;
        };
        match ctrl.peers.get(&from) {
            Some(pc) => {
                pc.datagrams_in.fetch_add(1, Ordering::Relaxed);
            }
            None if ctrl.enforce => {
                self.metrics
                    .mesh
                    .upstream_rejects
                    .fetch_add(1, Ordering::Relaxed);
                return false;
            }
            None => {}
        }
        true
    }

    /// The global byte-budget valve over every relay pre-signature
    /// buffer: an S1 is refused while the gauge — as published, plus the
    /// calling burst's own unpublished change — is over budget. Needs no
    /// lock.
    pub(super) fn valve_admits(&self, ptype: PacketType, out: &EngineOutput) -> bool {
        let Some(max) = self.cfg.max_buffered_bytes else {
            return true;
        };
        if ptype == PacketType::S1
            && self.buffered.load(Ordering::Relaxed) + out.pending.buffered > max as i64
        {
            self.metrics
                .backpressure_drops
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    pub(super) fn host_packet(
        &self,
        from: SocketAddr,
        slice: &[u8],
        view: &PacketView<'_>,
        now: Timestamp,
        rng: &mut dyn RngCore,
        out: &mut EngineOutput,
    ) {
        let key = FlowKey {
            peer: from,
            assoc_id: view.assoc_id,
        };
        if !self.valve_admits(view.packet_type(), out) {
            return;
        }
        // One write lock per packet: look the flow up, charge its
        // bucket, and hand the held lock to the handler for its state,
        // so no transition can race in between. Only an unknown flow
        // lets go first — standing up an association builds hash
        // chains, too slow to do locked.
        let mut guard = self.shards.write(self.shard_index(&key));
        let Some(state) = guard.flows.get_mut(&key) else {
            drop(guard);
            self.accept_handshake(key, view, slice.len(), now, rng, out);
            return;
        };
        if !state.admits(view.packet_type(), slice.len(), now) {
            self.metrics.admission_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match state {
            FlowState::Connecting { .. } => self.complete_handshake(guard, key, view, now, out),
            FlowState::Host(_) => self.host_handle(guard, key, view, now, rng, out),
            FlowState::Hibernated { .. } => self.host_thaw(guard, key, view, now, rng, out),
            FlowState::Relay { .. } => {
                // A relay pair keyed like this unrouted source.
                self.metrics.record_drop(DropReason::UnknownAssociation);
            }
        }
    }
}

impl FlowState {
    /// Charge a flood-vector packet (S1 / HS1, which nothing can verify
    /// yet) to a host flow's bucket: `false` when the bucket refuses
    /// it, and the packet must drop. Other packets pass, and so does
    /// everything on a relay flow, whose bucket sits behind the chain
    /// check ([`alpha_core::RelayConfig::s1_bytes_per_sec`]).
    fn admits(&mut self, ptype: PacketType, wire_len: usize, now: Timestamp) -> bool {
        let limiter = match self {
            FlowState::Connecting { limiter, .. } | FlowState::Hibernated { limiter } => limiter,
            FlowState::Host(flow) => &mut flow.limiter,
            FlowState::Relay { .. } => return true,
        };
        !matches!(ptype, PacketType::S1 | PacketType::Hs1) || limiter.allow(wire_len as u64, now)
    }
}
